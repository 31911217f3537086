"""Tests for the scaffolding extension (paper §7 future work): merging the
contig set into longer sequences by re-running the sparse-matrix OLC
machinery over it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assembly import Contig
from repro.errors import PipelineError
from repro.pipeline import Pipeline
from repro.scaffold import ScaffoldConfig, gap_fill, scaffold_contigs
from repro.seq import dna


def windows(genome, bounds):
    """Cut [lo, hi) windows out of a genome."""
    return [genome[lo:hi].copy() for lo, hi in bounds]


def genome_of(length, seed=0):
    return dna.random_codes(np.random.default_rng(seed), length)


def matches_reference(codes, ref):
    return np.array_equal(codes, ref) or np.array_equal(codes, dna.revcomp(ref))


class TestMergeBasics:
    def test_two_overlapping_windows_merge_exactly(self):
        g = genome_of(1200, seed=1)
        res = scaffold_contigs(windows(g, [(0, 700), (600, 1200)]))
        assert res.count == 1
        assert matches_reference(res.contigs[0], g)

    def test_four_window_chain_merges_in_one_round(self):
        g = genome_of(2000, seed=2)
        res = scaffold_contigs(
            windows(g, [(0, 600), (500, 1100), (1000, 1600), (1500, 2000)])
        )
        assert res.count == 1
        assert matches_reference(res.contigs[0], g)
        assert res.rounds[0].n_chains == 1

    def test_reverse_complemented_window_still_merges(self):
        g = genome_of(1200, seed=3)
        left, right = windows(g, [(0, 700), (600, 1200)])
        res = scaffold_contigs([left, dna.revcomp(right)])
        assert res.count == 1
        assert matches_reference(res.contigs[0], g)

    def test_disjoint_contigs_pass_through_unchanged(self):
        g1, g2 = genome_of(800, seed=4), genome_of(800, seed=5)
        res = scaffold_contigs([g1, g2])
        assert res.count == 2
        assert res.rounds[0].n_chains == 0
        assert res.rounds[0].n_passthrough == 2
        got = sorted(res.contigs, key=lambda c: c.tobytes())
        want = sorted([g1, g2], key=lambda c: c.tobytes())
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_contained_contig_is_absorbed(self):
        g = genome_of(1500, seed=6)
        big, small = g[0:1500].copy(), g[400:900].copy()
        res = scaffold_contigs([big, small])
        assert res.count == 1
        assert matches_reference(res.contigs[0], g)
        assert res.rounds[0].n_absorbed == 1

    def test_two_separate_chains_merge_independently(self):
        g1, g2 = genome_of(1400, seed=7), genome_of(1400, seed=8)
        contigs = windows(g1, [(0, 800), (700, 1400)]) + windows(
            g2, [(0, 800), (700, 1400)]
        )
        res = scaffold_contigs(contigs)
        assert res.count == 2
        outs = {c.size for c in res.contigs}
        assert outs == {1400}
        oks = [
            any(matches_reference(c, g) for g in (g1, g2)) for c in res.contigs
        ]
        assert all(oks)


class TestEdgeCasesAndInputs:
    def test_empty_input_returns_empty(self):
        res = scaffold_contigs([])
        assert res.count == 0
        assert res.n_rounds == 0

    def test_single_contig_passthrough(self):
        g = genome_of(500, seed=9)
        res = scaffold_contigs([g])
        assert res.count == 1
        assert np.array_equal(res.contigs[0], g)
        assert res.n_rounds == 0

    def test_contig_objects_accepted(self):
        g = genome_of(1200, seed=10)
        left, right = windows(g, [(0, 700), (600, 1200)])
        objs = [
            Contig(codes=left, read_path=[0], orientations=[1]),
            Contig(codes=right, read_path=[1], orientations=[1]),
        ]
        res = scaffold_contigs(objs)
        assert res.count == 1
        assert matches_reference(res.contigs[0], g)

    def test_no_shared_kmers_fast_path(self):
        # two short unrelated sequences share no 25-mers: the round's
        # pipeline run finds no chain and nothing contained
        res = scaffold_contigs([genome_of(200, seed=11), genome_of(200, seed=12)])
        assert res.count == 2
        assert res.rounds[0].n_chains == 0

    def test_result_accessors(self):
        g = genome_of(1000, seed=13)
        res = scaffold_contigs(windows(g, [(0, 600), (500, 1000)]))
        assert res.longest() == 1000
        assert res.total_bases() == 1000
        assert res.lengths().tolist() == [1000]


class TestRoundsAndFixpoint:
    def test_fixpoint_reached_before_max_rounds(self):
        g = genome_of(1500, seed=14)
        res = scaffold_contigs(
            windows(g, [(0, 800), (700, 1500)]),
            ScaffoldConfig(max_rounds=4),
        )
        # round 0 merges, round 1 finds nothing (single contig short-circuit)
        assert res.n_rounds <= 2
        assert res.count == 1

    def test_max_rounds_one_stops_early(self):
        g = genome_of(1500, seed=15)
        res = scaffold_contigs(
            windows(g, [(0, 800), (700, 1500)]),
            ScaffoldConfig(max_rounds=1),
        )
        assert res.n_rounds == 1

    def test_scaffolding_is_idempotent(self):
        g = genome_of(1600, seed=16)
        first = scaffold_contigs(windows(g, [(0, 900), (800, 1600)]))
        second = scaffold_contigs(first.contigs)
        assert second.count == first.count
        assert all(
            np.array_equal(a, b) or np.array_equal(a, dna.revcomp(b))
            for a, b in zip(
                sorted(first.contigs, key=len), sorted(second.contigs, key=len)
            )
        )

    def test_round_stats_are_consistent(self):
        g = genome_of(2000, seed=17)
        res = scaffold_contigs(
            windows(g, [(0, 600), (500, 1100), (1000, 1600), (1500, 2000)])
        )
        for r in res.rounds:
            assert r.n_output == r.n_chains + r.n_passthrough
            assert r.longest_out >= 0
            assert r.n_input >= r.n_output or r.n_chains == 0


class TestRoundIsOnePipelineRun:
    """Each round is exactly one ``Pipeline.run``: a hand copy of the stage
    chain cannot come back unnoticed."""

    @pytest.fixture
    def run_calls(self, monkeypatch):
        calls = []
        real = Pipeline.run

        def counting(self, *args, **kwargs):
            calls.append(args[0])
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Pipeline, "run", counting)
        return calls

    def test_scaffold_contigs(self, run_calls):
        g = genome_of(2000, seed=2)
        res = scaffold_contigs(
            windows(g, [(0, 600), (500, 1100), (1000, 1600), (1500, 2000)])
        )
        assert res.count == 1
        assert len(run_calls) == res.n_rounds == 1

    def test_gap_fill(self, run_calls):
        g = genome_of(2000, seed=41)
        contigs = [g[0:900].copy(), g[950:2000].copy()]
        res = gap_fill(contigs, [g[820:1080].copy()])
        assert res.count == 1
        assert len(run_calls) == res.n_rounds >= 1
        # the bridging round sees the contigs plus the selected read
        assert len(run_calls[0]) == 3


class TestDistributedInvariance:
    @pytest.mark.parametrize("nprocs", [1, 4, 9])
    def test_result_independent_of_grid_size(self, nprocs):
        g = genome_of(2000, seed=18)
        res = scaffold_contigs(
            windows(g, [(0, 600), (500, 1100), (1000, 1600), (1500, 2000)]),
            ScaffoldConfig(nprocs=nprocs),
        )
        assert res.count == 1
        assert matches_reference(res.contigs[0], g)

    def test_modeled_time_positive_on_real_machine(self):
        g = genome_of(1200, seed=19)
        res = scaffold_contigs(
            windows(g, [(0, 700), (600, 1200)]),
            ScaffoldConfig(nprocs=4, machine="cori-haswell"),
        )
        assert res.modeled_seconds > 0.0
        assert res.wall_seconds > 0.0


class TestConfigValidation:
    def test_bad_nprocs_rejected(self):
        with pytest.raises(PipelineError):
            scaffold_contigs([], ScaffoldConfig(nprocs=3))

    def test_bad_k_rejected(self):
        with pytest.raises(PipelineError):
            scaffold_contigs([], ScaffoldConfig(k=40))

    def test_bad_rounds_rejected(self):
        with pytest.raises(PipelineError):
            scaffold_contigs([], ScaffoldConfig(max_rounds=0))

    def test_bad_align_mode_rejected(self):
        with pytest.raises(PipelineError):
            scaffold_contigs([], ScaffoldConfig(align_mode="banana"))

    @pytest.mark.parametrize(
        "kwargs", [dict(xdrop=-1), dict(tr_fuzz=-1), dict(min_shared_kmers=0)]
    )
    def test_knobs_the_pipeline_rejects_are_rejected(self, kwargs):
        # xdrop=-1 used to pass and silently leave these windows unmerged
        g = genome_of(1200, seed=20)
        with pytest.raises(PipelineError):
            scaffold_contigs(
                windows(g, [(0, 700), (600, 1200)]), ScaffoldConfig(**kwargs)
            )

    def test_unknown_machine_rejected(self):
        with pytest.raises(PipelineError):
            scaffold_contigs(
                [np.zeros(10, dtype=np.uint8)] * 2,
                ScaffoldConfig(machine="not-a-machine"),
            )


class TestGapFill:
    """Bridging contig gaps with unplaced reads (branch-masked bases)."""

    def test_bridge_read_joins_two_contigs(self):
        g = genome_of(2000, seed=30)
        contigs = [g[0:900].copy(), g[950:2000].copy()]  # 50 bp gap
        bridge = g[820:1080].copy()
        res = gap_fill(contigs, [bridge])
        assert res.count == 1
        assert matches_reference(res.contigs[0], g)

    def test_interior_reads_are_ignored(self):
        g = genome_of(2000, seed=31)
        contigs = [g[0:900].copy(), g[950:2000].copy()]
        reads = [g[820:1080].copy()] + [
            g[i : i + 200].copy() for i in range(0, 700, 100)
        ]
        res = gap_fill(contigs, reads)
        assert res.count == 1
        assert matches_reference(res.contigs[0], g)

    def test_redundant_straddlers_do_not_cancel(self):
        """Near-identical bridges must not absorb each other into nothing
        (the containment-cascade regression)."""
        g = genome_of(2000, seed=32)
        contigs = [g[0:900].copy(), g[950:2000].copy()]
        bridges = [g[820 + d : 1080 + d].copy() for d in (-9, -6, -3, 0, 3, 6)]
        res = gap_fill(contigs, bridges)
        assert res.count == 1
        assert res.contigs[0].size >= 1990

    def test_extender_read_lengthens_contig_end(self):
        g = genome_of(1500, seed=33)
        contig = g[200:1500].copy()
        extender = g[0:400].copy()
        res = gap_fill([contig], [extender])
        assert res.count == 1
        assert matches_reference(res.contigs[0], g)

    def test_read_only_chains_discarded(self):
        """Reads overlapping only each other (a second locus) must not
        surface as gap-fill output."""
        g1, g2 = genome_of(1200, seed=34), genome_of(1200, seed=35)
        contigs = [g1.copy()]
        stray = [g2[0:700].copy(), g2[600:1200].copy()]
        res = gap_fill(contigs, stray)
        assert res.count == 1
        assert matches_reference(res.contigs[0], g1)

    def test_unrelated_reads_leave_contigs_untouched(self):
        g = genome_of(1000, seed=36)
        res = gap_fill([g.copy()], [genome_of(300, seed=99)])
        assert res.count == 1
        assert np.array_equal(res.contigs[0], g)

    def test_empty_reads_falls_back_to_scaffold(self):
        g = genome_of(1400, seed=37)
        res = gap_fill(windows(g, [(0, 800), (700, 1400)]), [])
        assert res.count == 1
        assert matches_reference(res.contigs[0], g)

    def test_empty_contigs(self):
        res = gap_fill([], [genome_of(300, seed=38)])
        assert res.count == 0

    def test_contig_objects_accepted(self):
        g = genome_of(2000, seed=39)
        objs = [
            Contig(codes=g[0:900].copy(), read_path=[0], orientations=[1]),
            Contig(codes=g[950:2000].copy(), read_path=[1], orientations=[1]),
        ]
        res = gap_fill(objs, [g[820:1080].copy()])
        assert res.count == 1

    @pytest.mark.parametrize("nprocs", [1, 4])
    def test_grid_invariance(self, nprocs):
        g = genome_of(2000, seed=40)
        contigs = [g[0:900].copy(), g[950:2000].copy()]
        res = gap_fill(
            contigs, [g[820:1080].copy()], ScaffoldConfig(nprocs=nprocs)
        )
        assert res.count == 1
        assert matches_reference(res.contigs[0], g)

    def test_round_stats_recorded(self):
        g = genome_of(2000, seed=41)
        contigs = [g[0:900].copy(), g[950:2000].copy()]
        res = gap_fill(contigs, [g[820:1080].copy()])
        assert res.rounds[0].n_chains == 1
        assert res.n_rounds >= 1


class TestMergeProperties:
    @given(
        length=st.integers(min_value=900, max_value=2400),
        n_windows=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_overlapping_tiling_always_reassembles(self, length, n_windows, seed):
        """Windows overlapping by >= 2k bases always merge back exactly."""
        g = genome_of(length, seed=seed)
        overlap = 120
        stride = max((length - overlap) // n_windows, overlap + 1)
        bounds = []
        lo = 0
        while True:
            hi = lo + stride + overlap
            if hi + stride // 2 >= length:
                # absorb the tail into the final window so it extends well
                # past the previous one (a near-contained sliver would be
                # legitimately absorbed by the containment rule instead)
                bounds.append((lo, length))
                break
            bounds.append((lo, hi))
            lo += stride
        if len(bounds) < 2:
            return
        res = scaffold_contigs(windows(g, bounds))
        assert res.count == 1
        assert matches_reference(res.contigs[0], g)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_output_never_loses_genome_bases(self, seed):
        """Total scaffolded bases stay between genome length and input sum."""
        g = genome_of(1500, seed=seed)
        contigs = windows(g, [(0, 700), (600, 1100), (1000, 1500)])
        res = scaffold_contigs(contigs)
        total_in = sum(c.size for c in contigs)
        assert g.size <= res.total_bases() <= total_in
