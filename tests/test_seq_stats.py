"""Tests for read-set statistics and the k-mer spectrum depth estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seq import (
    dna,
    estimate_depth,
    kmer_spectrum,
    read_stats,
    sample_reads,
    tile_reads,
)


def genome_of(length, seed=0):
    return dna.random_codes(np.random.default_rng(seed), length)


class TestReadStats:
    def test_fixed_length_tiling(self):
        g = genome_of(2000, seed=1)
        rs = tile_reads(g, 200, 100)
        st_ = read_stats(rs, genome_length=2000)
        assert st_.n_reads == len(rs.reads)
        assert st_.min_length == st_.max_length == 200
        assert st_.read_n50 == 200
        assert st_.mean_length == 200.0
        assert st_.total_bases == 200 * st_.n_reads
        assert st_.depth == pytest.approx(st_.total_bases / 2000)

    def test_gc_content_extremes(self):
        all_at = [np.array([0, 3, 0, 3], dtype=np.uint8)]  # A/T only
        all_gc = [np.array([1, 2, 1, 2], dtype=np.uint8)]  # C/G only
        assert read_stats(all_at).gc_content == 0.0
        assert read_stats(all_gc).gc_content == 1.0

    def test_empty_read_set(self):
        st_ = read_stats([])
        assert st_.n_reads == 0
        assert st_.total_bases == 0
        assert st_.read_n50 == 0

    def test_n50_definition(self):
        # lengths 1..9 + 10: total 55, half 27.5; sorted desc cumsum
        # 10,19,27,34 -> N50 = 7
        reads = [np.zeros(n, dtype=np.uint8) for n in list(range(1, 10)) + [10]]
        assert read_stats(reads).read_n50 == 7

    def test_histogram_covers_all_reads(self):
        g = genome_of(3000, seed=2)
        rs = sample_reads(g, depth=5, mean_length=200, rng=3)
        st_ = read_stats(rs)
        assert sum(st_.length_histogram.values()) == st_.n_reads

    def test_render_mentions_core_fields(self):
        g = genome_of(1000, seed=3)
        text = read_stats(tile_reads(g, 100, 50), genome_length=1000).render()
        for token in ("reads:", "N50", "GC content", "depth"):
            assert token in text

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_invariants(self, seed):
        g = genome_of(1500, seed=seed)
        rs = sample_reads(g, depth=4, mean_length=150, rng=seed)
        stats = read_stats(rs)
        assert stats.min_length <= stats.mean_length <= stats.max_length
        assert stats.min_length <= stats.read_n50 <= stats.max_length
        assert 0.0 <= stats.gc_content <= 1.0


class TestKmerSpectrum:
    def test_unique_genome_spectrum_peaks_at_depth(self):
        """An exact tiling at depth d puts most genomic k-mers at
        multiplicity ~d: the estimator must land near d."""
        g = genome_of(4000, seed=4)
        rs = tile_reads(g, 400, 100)  # 4x depth
        spec = kmer_spectrum(rs, 21)
        assert estimate_depth(spec) == pytest.approx(4, abs=1)

    def test_errors_pile_up_at_multiplicity_one(self):
        g = genome_of(3000, seed=5)
        clean = tile_reads(g, 300, 100)
        noisy = sample_reads(
            g, depth=3, mean_length=300, rng=6,
            error_rate=0.02, error_mix=(1.0, 0.0, 0.0),
        )
        spec_clean = kmer_spectrum(clean, 21)
        spec_noisy = kmer_spectrum(noisy, 21)
        assert spec_noisy[1] > spec_clean[1]

    def test_spectrum_mass_equals_distinct_kmers(self):
        g = genome_of(1000, seed=7)
        rs = tile_reads(g, 200, 100)
        spec = kmer_spectrum(rs, 15)
        from repro.kmer.codec import canonical_kmers, encode_kmers

        all_canon = np.concatenate(
            [canonical_kmers(encode_kmers(r, 15), 15)[0] for r in rs.reads]
        )
        assert spec.sum() == np.unique(all_canon).size

    def test_multiplicity_cap(self):
        reads = [np.zeros(100, dtype=np.uint8) for _ in range(5)]  # poly-A
        spec = kmer_spectrum(reads, 11, max_multiplicity=8)
        assert spec[8] == 1  # the single distinct k-mer, capped at 8
        assert spec.sum() == 1

    def test_empty_and_short_reads(self):
        assert kmer_spectrum([], 21).sum() == 0
        assert kmer_spectrum([np.zeros(5, dtype=np.uint8)], 21).sum() == 0

    @pytest.mark.parametrize("k", [1, 5, 21])
    def test_spectrum_equals_per_read_reference(self, k):
        """One pass over the packed reads counts what the per-read codec
        counts, with empty reads and reads shorter than k mixed in."""
        from collections import Counter

        from repro.kmer.codec import canonical_kmers, encode_kmers

        rng = np.random.default_rng(k)
        g = genome_of(400, seed=11)
        reads = [np.empty(0, dtype=np.uint8), g[:k - 1], g[:k]]
        for _ in range(30):
            start = int(rng.integers(0, 300))
            reads.append(g[start : start + int(rng.integers(0, 100))])
        reads.append(np.empty(0, dtype=np.uint8))
        mult = Counter(
            int(x)
            for r in reads
            for x in canonical_kmers(encode_kmers(r, k), k)[0]
        )
        want = np.zeros(9, dtype=np.int64)
        for m in mult.values():
            want[min(m, 8)] += 1
        assert np.array_equal(kmer_spectrum(reads, k, max_multiplicity=8), want)

    def test_estimate_depth_degenerate(self):
        assert estimate_depth(np.zeros(3, dtype=np.int64)) == 0.0
        assert estimate_depth(np.array([0, 10], dtype=np.int64)) == 0.0
