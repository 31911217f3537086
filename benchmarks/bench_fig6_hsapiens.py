"""Figure 6: H. sapiens strong scaling and breakdown on Summit.

The paper's largest run: the high-error dataset on Summit CPU at
P = {200, 288, 338, 392} nodes, with ~90% parallel efficiency between the
first and last configurations (a large input keeps all ranks busy).  The
bench-scale counterpart sweeps the high-error preset (seed-statistics-
preserving error, banded-DP alignment, k=17, x=7) over P = {16, 36, 64}.
"""

import pytest

from figures import stacked_bar_chart
from repro.bench import sweep_pipeline
from repro.pipeline import (
    MAIN_STAGES,
    breakdown_table,
    parallel_efficiency,
    scaling_table,
)
from repro.pipeline.report import ScalingPoint

P_LIST = [16, 36, 64]


@pytest.fixture(scope="module")
def sweep(h_sapiens):
    return sweep_pipeline(h_sapiens, "summit-cpu", P_LIST)


def _figure(sweep) -> str:
    """Both panels: scaling table + stacked breakdown bars."""
    stacks = {
        stage: [r.stage_seconds(stage) for r in sweep]
        for stage in MAIN_STAGES
    }
    chart = stacked_bar_chart(
        [f"P={r.config.nprocs}" for r in sweep],
        stacks,
        title="Fig 6 -- H. sapiens / summit-cpu (modeled s)",
    )
    return (
        "Figure 6 -- H. sapiens on Summit CPU\n\n"
        + scaling_table("H. sapiens / summit-cpu", sweep)
        + "\n\n"
        + breakdown_table("H. sapiens / summit-cpu", sweep)
        + "\n\n"
        + chart
    )


class TestFig6:
    def test_render(self, write_artifact, sweep):
        text = _figure(sweep)
        write_artifact("fig6_hsapiens", text)
        assert "H. sapiens" in text

    def test_scaling_monotone(self, sweep):
        times = [r.modeled_total for r in sweep]
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_high_efficiency_between_adjacent_points(self, sweep):
        """Paper: ~90% efficiency 200 -> 392 nodes (big input, modest P
        growth).  Assert the 16 -> 36 window efficiency stays high."""
        pts = [
            ScalingPoint(r.config.nprocs, r.modeled_total, 0.0) for r in sweep
        ]
        rel = (pts[0].modeled_seconds * pts[0].nprocs) / (
            pts[1].modeled_seconds * pts[1].nprocs
        )
        assert rel > 0.55

    def test_alignment_dominates_on_summit(self, sweep):
        """High error + SIMD penalty: alignment is the top stage."""
        for res in sweep:
            breakdown = res.main_stage_breakdown()
            assert breakdown["Alignment"] == max(breakdown.values())

    def test_contigs_produced_despite_high_error(self, sweep, h_sapiens):
        from repro.quality import evaluate_assembly

        res = sweep[0]
        assert res.contigs.count > 0
        rep = evaluate_assembly(
            res.contigs.contigs, h_sapiens.genome, k=h_sapiens.k
        )
        assert rep.completeness > 0.1  # high-error regime: partial assembly


def test_bench_fig6_full(benchmark, write_artifact, sweep):
    """Aggregated Fig. 6 reproduction (runs under --benchmark-only)."""

    def regenerate():
        times = [r.modeled_total for r in sweep]
        assert all(a > b for a, b in zip(times, times[1:]))
        for res in sweep:
            breakdown = res.main_stage_breakdown()
            assert breakdown["Alignment"] == max(breakdown.values())
        return _figure(sweep)

    text = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    write_artifact("fig6_hsapiens", text)


def test_bench_dp_alignment_pipeline(benchmark, h_sapiens):
    """One high-error (banded DP) run -- the slowest per-pair kernel."""
    from repro.mpi import MACHINE_PRESETS
    from repro.pipeline import Pipeline

    machine = MACHINE_PRESETS["summit-cpu"]().scaled(h_sapiens.scale)
    result = benchmark.pedantic(
        lambda: Pipeline.default().run(
            h_sapiens.readset, h_sapiens.config(16, machine)
        ),
        rounds=1,
        iterations=1,
    )
    assert result.counts["reads"] > 0
