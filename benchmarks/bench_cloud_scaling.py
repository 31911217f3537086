"""Extension study: ELBA on a cloud HPC fabric (paper §7 future work).

The paper plans to "optimize ELBA for running in a cloud environment",
citing the authors' measurement study that cloud fabrics retain a
small-message latency gap over Cray Aries while matching its bandwidth.
The ``aws-hpc`` preset encodes that regime; this bench sweeps the C.
elegans pipeline over P on both machines and checks the expected shape:

* end-to-end cloud times within a small factor of Cori (the "closing the
  gap" result);
* the *latency-bound* phases (TrReduction + ExtractContig) degrade much
  more on the cloud fabric than the bandwidth/compute-bound ones
  (CountKmer, DetectOverlap, Alignment);
* scaling efficiency ordering: cori >= cloud at the largest P.
"""

import pytest

from figures import render_matrix
from repro.bench import SCALING_P, sweep_pipeline

MACHINES = ("cori-haswell", "aws-hpc")
COMPUTE_STAGES = ("CountKmer", "DetectOverlap", "Alignment")
LATENCY_STAGES = ("TrReduction", "ExtractContig")


@pytest.fixture(scope="module")
def sweeps(c_elegans):
    return {m: sweep_pipeline(c_elegans, m, SCALING_P) for m in MACHINES}


def latency_share(result) -> float:
    lat = sum(result.stage_seconds(s) for s in LATENCY_STAGES)
    return lat / result.modeled_total if result.modeled_total else 0.0


class TestCloudScaling:
    def test_cloud_within_small_factor_of_cori(self, sweeps):
        """Bandwidth parity keeps the end-to-end gap modest (< 3x)."""
        for cori, cloud in zip(sweeps["cori-haswell"], sweeps["aws-hpc"]):
            assert cloud.modeled_total <= 3.0 * cori.modeled_total

    def test_latency_bound_stages_hurt_most(self, sweeps):
        """At the largest P the latency-bound share grows on the cloud."""
        cori = sweeps["cori-haswell"][-1]
        cloud = sweeps["aws-hpc"][-1]
        assert latency_share(cloud) > latency_share(cori)

    def test_compute_stages_nearly_identical(self, sweeps):
        """Same gamma, same SIMD: compute-bound stages match closely."""
        for cori, cloud in zip(sweeps["cori-haswell"], sweeps["aws-hpc"]):
            for stage in COMPUTE_STAGES:
                a, b = cori.stage_seconds(stage), cloud.stage_seconds(stage)
                if a > 0:
                    assert b <= 1.6 * a, stage

    def test_efficiency_ordering_at_scale(self, sweeps):
        """Cori's parallel efficiency at max P is at least the cloud's."""

        def eff(results):
            t1, tp = results[0].modeled_total, results[-1].modeled_total
            p = results[-1].config.nprocs
            return t1 / (p * tp) if tp else 0.0

        assert eff(sweeps["cori-haswell"]) >= eff(sweeps["aws-hpc"]) * 0.99

    def test_render(self, write_artifact, sweeps):
        write_artifact("cloud_scaling", _render(sweeps))


def _render(sweeps) -> str:
    rows = []
    for m in MACHINES:
        rows.append(
            (f"{m}: total s", [r.modeled_total for r in sweeps[m]])
        )
        rows.append(
            (f"{m}: latency %", [100 * latency_share(r) for r in sweeps[m]])
        )
    return render_matrix(
        "Cloud extension -- C. elegans pipeline, Cori vs aws-hpc",
        [f"P={p}" for p in SCALING_P],
        rows,
    )


def test_bench_cloud_scaling_full(benchmark, write_artifact, sweeps):
    """Aggregated cloud-vs-Cori comparison (runs under --benchmark-only)."""

    def regenerate():
        cori = sweeps["cori-haswell"][-1]
        cloud = sweeps["aws-hpc"][-1]
        assert latency_share(cloud) > latency_share(cori)
        return _render(sweeps)

    text = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    write_artifact("cloud_scaling", text)
