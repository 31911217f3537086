"""Figure 4: ELBA strong scaling on C. elegans and O. sativa, both machines.

Regenerates the time-vs-P series with parallel efficiency, and asserts the
shape claims of §6.1:

* near-linear scaling of the compute-bound stages at moderate P;
* parallel efficiency in the paper's reported band at mid-range P
  (the paper reports 64-80% at its largest configuration);
* Cori Haswell faster than Summit CPU end-to-end (the alignment SIMD
  penalty plus slower network).

The C. elegans tables add a P = 256 row, report-only: no assertion reads
it (``paper_scale_gate.py`` pins that run and P = 1 024).
"""

import pytest

from figures import ascii_line_chart
from repro.bench import SCALING_P, sweep_pipeline
from repro.pipeline import parallel_efficiency, scaling_table
from repro.pipeline.report import ScalingPoint


def points(results):
    return [
        ScalingPoint(r.config.nprocs, r.modeled_total, r.report.wall_seconds)
        for r in results
    ]


@pytest.fixture(scope="module")
def celegans_sweeps(c_elegans):
    return {
        m: sweep_pipeline(c_elegans, m, SCALING_P)
        for m in ("cori-haswell", "summit-cpu")
    }


@pytest.fixture(scope="module")
def celegans_p256(c_elegans):
    """C. elegans at P = 256, the paper's scale: report-only, one more row
    of the rendered tables that no shape assertion reads."""
    return {
        m: sweep_pipeline(c_elegans, m, [256])
        for m in ("cori-haswell", "summit-cpu")
    }


@pytest.fixture(scope="module")
def osativa_sweeps(o_sativa):
    return {
        m: sweep_pipeline(o_sativa, m, [1, 4, 16, 64])
        for m in ("cori-haswell", "summit-cpu")
    }


def _tables(celegans_sweeps, celegans_p256, osativa_sweeps) -> list[str]:
    blocks = []
    for label, sweeps, extra in (
        ("C. elegans", celegans_sweeps, celegans_p256),
        ("O. sativa", osativa_sweeps, {}),
    ):
        for machine, results in sweeps.items():
            rows = results + extra.get(machine, [])
            blocks.append(scaling_table(f"{label} / {machine}", rows))
    return blocks


def _chart(celegans_sweeps, osativa_sweeps) -> str:
    """The figure itself: log-log time-vs-P curves, one marker per line."""
    series = {}
    for label, sweeps in (
        ("C.e", celegans_sweeps),
        ("O.s", osativa_sweeps),
    ):
        for machine, results in sweeps.items():
            series[f"{label}/{machine}"] = [
                (r.config.nprocs, r.modeled_total) for r in results
            ]
    return ascii_line_chart(
        series,
        logx=True,
        logy=True,
        title="Fig 4 -- modeled time vs P (log-log)",
        xlabel="ranks",
        ylabel="modeled seconds",
    )


class TestFig4:
    def test_render(
        self, write_artifact, celegans_sweeps, celegans_p256, osativa_sweeps
    ):
        blocks = _tables(celegans_sweeps, celegans_p256, osativa_sweeps)
        blocks.append(_chart(celegans_sweeps, osativa_sweeps))
        text = "Figure 4 -- ELBA strong scaling\n\n" + "\n\n".join(blocks)
        write_artifact("fig4_strong_scaling", text)
        assert "efficiency" in text

    @pytest.mark.parametrize("machine", ["cori-haswell", "summit-cpu"])
    def test_speedup_monotone(self, celegans_sweeps, machine):
        pts = points(celegans_sweeps[machine])
        times = [p.modeled_seconds for p in pts]
        assert all(a > b for a, b in zip(times, times[1:])), times

    def test_efficiency_band_midrange(self, celegans_sweeps):
        """At P=16 the modeled efficiency should sit in the paper's band
        (they report 64-80% overall; we assert a sane 50-100% window)."""
        pts = points(celegans_sweeps["cori-haswell"])
        effs = dict(zip([p.nprocs for p in pts], parallel_efficiency(pts)))
        assert 0.5 <= effs[16] <= 1.0
        assert effs[4] >= effs[16] >= effs[64]

    def test_cori_faster_than_summit(self, celegans_sweeps, osativa_sweeps):
        """§6.1: "ELBA is faster overall on Cori Haswell than on Summit"."""
        for sweeps in (celegans_sweeps, osativa_sweeps):
            for rc, rs in zip(sweeps["cori-haswell"], sweeps["summit-cpu"]):
                assert rc.modeled_total < rs.modeled_total

    def test_larger_genome_takes_longer(self, celegans_sweeps, osativa_sweeps):
        """O. sativa (5x genome at equal scale factor ratio) must cost more
        modeled time than C. elegans at equal P."""
        ce = {r.config.nprocs: r.modeled_total for r in celegans_sweeps["cori-haswell"]}
        osa = {r.config.nprocs: r.modeled_total for r in osativa_sweeps["cori-haswell"]}
        for p in (1, 4, 16, 64):
            assert osa[p] > ce[p]

    def test_assemblies_are_sane(self, celegans_sweeps, c_elegans):
        from repro.quality import evaluate_assembly

        res = celegans_sweeps["cori-haswell"][0]
        rep = evaluate_assembly(res.contigs.contigs, c_elegans.genome, k=c_elegans.k)
        assert rep.completeness > 0.5
        assert rep.misassemblies <= 2


def test_bench_fig4_full(
    benchmark, write_artifact, celegans_sweeps, celegans_p256, osativa_sweeps
):
    """Aggregated Fig. 4 reproduction (runs under --benchmark-only)."""

    def regenerate():
        blocks = _tables(celegans_sweeps, celegans_p256, osativa_sweeps)
        # shape assertions: monotone speedup, Cori faster than Summit
        for sweeps in (celegans_sweeps, osativa_sweeps):
            for machine, results in sweeps.items():
                times = [r.modeled_total for r in results]
                assert all(a > b for a, b in zip(times, times[1:]))
            for rc, rs in zip(sweeps["cori-haswell"], sweeps["summit-cpu"]):
                assert rc.modeled_total < rs.modeled_total
        blocks.append(_chart(celegans_sweeps, osativa_sweeps))
        return "Figure 4 -- ELBA strong scaling\n\n" + "\n\n".join(blocks)

    text = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    write_artifact("fig4_strong_scaling", text)


def test_bench_pipeline_p4(benchmark, c_elegans):
    """Wall-clock of one simulated P=4 run (the bench harness unit)."""
    from repro.mpi import MACHINE_PRESETS

    machine = MACHINE_PRESETS["cori-haswell"]().scaled(c_elegans.scale)

    def run():
        from repro.pipeline import Pipeline

        return Pipeline.default().run(
            c_elegans.readset, c_elegans.config(4, machine)
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.contigs.count > 0
