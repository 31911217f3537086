"""Tests for pileup-consensus polishing (paper §7 future work)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assembly import Contig
from repro.errors import PipelineError
from repro.scaffold import PolishConfig, polish_contigs
from repro.seq import dna


def genome_of(length, seed=0):
    return dna.random_codes(np.random.default_rng(seed), length)


def tiles(genome, read_len, stride):
    return [
        genome[i : i + read_len].copy()
        for i in range(0, genome.size - read_len + 1, stride)
    ]


def corrupt(codes, positions, rng=None):
    out = codes.copy()
    out[positions] = (out[positions] + 1) % 4
    return out


class TestPolishBasics:
    def test_clean_contig_unchanged(self):
        g = genome_of(1500, seed=1)
        res = polish_contigs([g], tiles(g, 400, 100))
        assert res.total_changed == 0
        assert np.array_equal(res.contigs[0].codes, g)

    def test_interior_errors_corrected(self):
        g = genome_of(1500, seed=2)
        bad = corrupt(g, np.array([400, 700, 1000]))
        res = polish_contigs([bad], tiles(g, 400, 100))
        assert res.total_changed == 3
        assert np.array_equal(res.contigs[0].codes, g)

    def test_low_depth_columns_keep_original(self):
        """Depth-1 regions cannot outvote the contig base: by design."""
        g = genome_of(1000, seed=3)
        # single read covering [0, 400): everything else is depth 0
        bad = corrupt(g, np.array([50, 800]))
        res = polish_contigs([bad], [g[0:400].copy()], PolishConfig(min_depth=2))
        # neither error is corrected: depth 1 at 50, depth 0 at 800
        assert res.total_changed == 0
        assert res.stats[0].low_depth_columns == 1000

    def test_errors_in_reads_do_not_corrupt_contig(self):
        """Minority read errors are outvoted by the clean majority."""
        g = genome_of(1200, seed=4)
        reads = tiles(g, 400, 100)
        rng = np.random.default_rng(0)
        for r in reads[::3]:  # every third read gets one error
            p = int(rng.integers(0, r.size))
            r[p] = (r[p] + 1) % 4
        res = polish_contigs([g], reads, PolishConfig(min_depth=3))
        assert np.array_equal(res.contigs[0].codes, g)

    def test_majority_vote_at_exact_depth_boundary(self):
        g = genome_of(600, seed=5)
        bad = corrupt(g, np.array([300]))
        # exactly two clean reads cover position 300
        reads = [g[100:500].copy(), g[200:600].copy()]
        res = polish_contigs([bad], reads, PolishConfig(min_depth=2))
        assert np.array_equal(res.contigs[0].codes, g)


class TestStrandsAndProvenance:
    def test_reverse_strand_reads_vote_correctly(self):
        g = genome_of(1200, seed=6)
        bad = corrupt(g, np.array([600]))
        reads = [
            dna.revcomp(r) if i % 2 else r
            for i, r in enumerate(tiles(g, 400, 100))
        ]
        res = polish_contigs([bad], reads)
        assert np.array_equal(res.contigs[0].codes, g)

    def test_read_path_restricts_candidates(self):
        g = genome_of(800, seed=7)
        covering = [g[0:500].copy(), g[300:800].copy()]
        unrelated = [genome_of(500, seed=99)]
        contig = Contig(codes=g.copy(), read_path=[0, 1], orientations=[1, 1])
        res = polish_contigs([contig], covering + unrelated)
        assert res.stats[0].reads_used == 2

    def test_unrelated_reads_skipped_by_anchor_filter(self):
        g = genome_of(800, seed=8)
        reads = tiles(g, 400, 200) + [genome_of(400, seed=100)]
        res = polish_contigs([g], reads)
        assert res.stats[0].reads_skipped == 1
        assert np.array_equal(res.contigs[0].codes, g)

    def test_provenance_metadata_preserved(self):
        g = genome_of(600, seed=9)
        contig = Contig(
            codes=g.copy(),
            read_path=[3, 7],
            orientations=[1, -1],
            circular=True,
            truncated=True,
        )
        res = polish_contigs([contig], [g[0:400].copy(), g[200:600].copy()])
        out = res.contigs[0]
        assert out.read_path == [3, 7]
        assert out.orientations == [1, -1]
        assert out.circular and out.truncated


class TestRoundsAndConvergence:
    def test_polish_is_idempotent(self):
        g = genome_of(1200, seed=10)
        bad = corrupt(g, np.array([300, 900]))
        reads = tiles(g, 400, 100)
        once = polish_contigs([bad], reads)
        twice = polish_contigs([once.contigs[0].codes], reads)
        assert twice.total_changed == 0

    def test_multi_round_converges(self):
        g = genome_of(1200, seed=11)
        bad = corrupt(g, np.array([500]))
        res = polish_contigs(
            [bad], tiles(g, 400, 100), PolishConfig(rounds=3)
        )
        assert np.array_equal(res.contigs[0].codes, g)


class TestInputsAndValidation:
    def test_empty_contig_list(self):
        res = polish_contigs([], [genome_of(100)])
        assert res.contigs == [] and res.stats == []

    def test_contig_shorter_than_k_passthrough(self):
        tiny = genome_of(8, seed=12)
        res = polish_contigs([tiny], [genome_of(100)], PolishConfig(k=15))
        assert np.array_equal(res.contigs[0].codes, tiny)
        assert res.total_changed == 0

    def test_readset_like_object_accepted(self):
        class FakeReadSet:
            def __init__(self, reads):
                self.reads = reads

        g = genome_of(800, seed=13)
        res = polish_contigs([g], FakeReadSet(tiles(g, 400, 100)))
        assert res.total_changed == 0

    @pytest.mark.parametrize(
        "kwargs",
        [dict(k=0), dict(k=32), dict(min_anchors=0), dict(min_depth=0), dict(rounds=0)],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(PipelineError):
            polish_contigs([], [], PolishConfig(**kwargs))

    def test_stats_fields_populated(self):
        g = genome_of(1000, seed=14)
        res = polish_contigs([g], tiles(g, 400, 100))
        s = res.stats[0]
        assert s.length == 1000
        assert s.reads_used > 0
        assert s.mean_depth > 1.0
        assert res.wall_seconds > 0


class TestInPipelinePolish:
    """The distributed polishing phase: each rank polishes its contigs
    against the reads the sequence exchange placed on it."""

    @pytest.fixture(scope="class")
    def noisy_reads(self):
        from repro.seq import GenomeSpec, make_genome, sample_reads

        genome = make_genome(GenomeSpec(length=6000, seed=4))
        reads = sample_reads(
            genome, depth=18, mean_length=450, rng=5,
            error_rate=0.004, error_mix=(1.0, 0.0, 0.0),
        )
        return genome, reads

    def run(self, reads, polish, nprocs=4):
        from repro.pipeline import Pipeline, PipelineConfig

        return Pipeline.default().run(
            reads,
            PipelineConfig(nprocs=nprocs, k=21, end_margin=20, polish=polish),
        )

    def _mismatches(self, result, genome):
        from repro.quality import evaluate_assembly

        total = 0
        for c in result.contigs.contigs:
            rep = evaluate_assembly([c], genome, k=21)
            for b in rep.mappings[0].blocks:
                ref = genome[b.ref_start : b.ref_end]
                if b.strand == -1:
                    ref = dna.revcomp(ref)
                q = c.codes[b.contig_start : b.contig_end]
                n = min(ref.size, q.size)
                total += int((ref[:n] != q[:n]).sum())
        return total

    def test_polish_reduces_base_errors(self, noisy_reads):
        genome, reads = noisy_reads
        plain = self.run(reads, polish=False)
        polished = self.run(reads, polish=True)
        assert self._mismatches(polished, genome) < self._mismatches(
            plain, genome
        )

    def test_structure_unchanged(self, noisy_reads):
        _genome, reads = noisy_reads
        plain = self.run(reads, polish=False)
        polished = self.run(reads, polish=True)
        assert polished.contigs.count == plain.contigs.count
        for a, b in zip(plain.contigs.contigs, polished.contigs.contigs):
            assert a.read_path == b.read_path
            assert a.length == b.length

    def test_polish_stage_charged(self, noisy_reads):
        _genome, reads = noisy_reads
        polished = self.run(reads, polish=True)
        sub = polished.contig_substage_breakdown()
        assert "Polish" in sub and sub["Polish"] > 0
        plain = self.run(reads, polish=False)
        assert "Polish" not in plain.contig_substage_breakdown()

    @pytest.mark.parametrize("nprocs", [1, 9])
    def test_grid_invariance(self, noisy_reads, nprocs):
        _genome, reads = noisy_reads
        base = self.run(reads, polish=True, nprocs=4)
        other = self.run(reads, polish=True, nprocs=nprocs)
        a = sorted(c.sequence() for c in base.contigs.contigs)
        b = sorted(c.sequence() for c in other.contigs.contigs)
        assert a == b

    @pytest.mark.parametrize("nprocs", [1, 4, 9])
    def test_equals_polishing_the_result(self, noisy_reads, nprocs):
        """The in-run phase is ``polish_contigs`` over the plain run's
        contigs, contig for contig and in order: one way to polish inside a
        run, one to post-process a result, and no third."""
        _genome, reads = noisy_reads
        plain = self.run(reads, polish=False, nprocs=nprocs)
        polished = self.run(reads, polish=True, nprocs=nprocs)
        post = polish_contigs(plain.contigs.contigs, reads)
        assert post.total_changed >= 1
        assert [c.sequence() for c in polished.contigs.contigs] == [
            c.sequence() for c in post.contigs
        ]

    def test_error_free_input_is_noop(self):
        rng = np.random.default_rng(6)
        g = genome_of(2000, seed=20)
        reads = tiles(g, 250, 100)
        plain = self.run(reads, polish=False)
        polished = self.run(reads, polish=True)
        a = sorted(c.sequence() for c in plain.contigs.contigs)
        b = sorted(c.sequence() for c in polished.contigs.contigs)
        assert a == b


class TestPolishProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_errors=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_interior_errors_always_recovered(self, seed, n_errors):
        """With depth >= 3 everywhere in the interior, any small error set
        in the interior is corrected."""
        rng = np.random.default_rng(seed)
        g = genome_of(1600, seed=seed)
        reads = tiles(g, 400, 100)
        if n_errors:
            pos = rng.choice(np.arange(300, 1300), size=n_errors, replace=False)
            bad = corrupt(g, pos)
        else:
            bad = g.copy()
        res = polish_contigs([bad], reads, PolishConfig(min_depth=2))
        assert np.array_equal(res.contigs[0].codes[300:1300], g[300:1300])

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_polish_never_changes_length(self, seed):
        g = genome_of(900, seed=seed)
        bad = corrupt(g, np.array([450]))
        res = polish_contigs([bad], tiles(g, 300, 75))
        assert res.contigs[0].codes.size == g.size
