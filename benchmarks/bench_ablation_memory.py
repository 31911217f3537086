"""Ablation: bulk vs streaming SpGEMM accumulation (paper §7 memory plan).

The paper's future work includes reducing ELBA's memory consumption "so
that we can assemble large genomes at low concurrency".  The ``stream``
merge mode folds each SUMMA stage's partial product into a running
accumulator instead of keeping all sqrt(P) partials live.  This bench runs
the full pipeline in both modes on the C. elegans bench dataset and
verifies:

* identical contig output (the mode is purely an execution strategy);
* the streamed peak working set never exceeds the bulk peak, with the gap
  widening at larger P (more SUMMA stages to hold live);
* the modeled-time overhead of the extra merge passes stays small.
"""

import pytest

from figures import render_matrix
from repro.pipeline import Pipeline

P_LIST = [4, 16]


@pytest.fixture(scope="module")
def mode_runs(c_elegans):
    pipeline = Pipeline.default()
    out = {}
    for p in P_LIST:
        for mode in ("fast", "low"):
            cfg = c_elegans.config(p, "cori-haswell")
            cfg.memory_mode = mode
            out[(p, mode)] = pipeline.run(c_elegans.readset, cfg)
    return out


class TestMemoryAblation:
    def test_modes_produce_identical_contigs(self, mode_runs):
        for p in P_LIST:
            fast = sorted(
                c.sequence() for c in mode_runs[(p, "fast")].contigs.contigs
            )
            low = sorted(
                c.sequence() for c in mode_runs[(p, "low")].contigs.contigs
            )
            assert fast == low, p

    def test_low_mode_reduces_peak(self, mode_runs):
        for p in P_LIST:
            fast = mode_runs[(p, "fast")].peak_memory_bytes
            low = mode_runs[(p, "low")].peak_memory_bytes
            assert low <= fast, (p, fast, low)

    def test_gap_meaningful_at_scale(self, mode_runs):
        """At P=16 the bulk mode holds 4 SUMMA partials live: the streamed
        accumulator should show a clearly smaller peak."""
        fast = mode_runs[(16, "fast")].peak_memory_bytes
        low = mode_runs[(16, "low")].peak_memory_bytes
        assert low < 0.95 * fast, (fast, low)

    def test_time_overhead_bounded(self, mode_runs):
        """Streaming pays extra merge passes but must stay within 25% of
        the bulk pipeline's modeled time."""
        for p in P_LIST:
            fast = mode_runs[(p, "fast")].modeled_total
            low = mode_runs[(p, "low")].modeled_total
            assert low <= 1.25 * fast, (p, fast, low)

    def test_render(self, write_artifact, mode_runs):
        write_artifact("ablation_memory", _render(mode_runs))
        assert True


def _render(mode_runs) -> str:
    rows = []
    for mode in ("fast", "low"):
        peaks = [mode_runs[(p, mode)].peak_memory_bytes / 1e6 for p in P_LIST]
        times = [mode_runs[(p, mode)].modeled_total for p in P_LIST]
        rows.append((f"{mode}: peak MB", peaks))
        rows.append((f"{mode}: modeled s", times))
    return render_matrix(
        "Ablation -- SpGEMM accumulation: bulk (fast) vs stream (low memory)",
        [f"P={p}" for p in P_LIST],
        rows,
    )


def test_bench_ablation_memory_full(benchmark, write_artifact, mode_runs):
    """Aggregated memory-mode ablation (runs under --benchmark-only)."""

    def regenerate():
        for p in P_LIST:
            assert (
                mode_runs[(p, "low")].peak_memory_bytes
                <= mode_runs[(p, "fast")].peak_memory_bytes
            )
        return _render(mode_runs)

    text = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    write_artifact("ablation_memory", text)


def test_bench_stream_spgemm(benchmark, c_elegans):
    """Microbench: one low-memory pipeline run at P=4."""
    cfg = c_elegans.config(4, "cori-haswell")
    cfg.memory_mode = "low"
    result = benchmark.pedantic(
        lambda: Pipeline.default().run(c_elegans.readset, cfg),
        rounds=1,
        iterations=1,
    )
    assert result.contigs.count >= 1
