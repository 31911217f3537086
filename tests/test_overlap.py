"""Unit tests for overlap detection (C = A.A^T) and the alignment filter."""

import numpy as np
import pytest

from repro.kmer import build_kmer_matrix, count_kmers
from repro.overlap import AlignmentParams, build_overlap_graph, detect_overlaps
from repro.seq import DistReadStore, GenomeSpec, dna, make_genome, tile_reads
from repro.sparse.semiring import seed_semiring
from repro.sparse.types import OVERLAP_DTYPE, SEED_DTYPE


def overlap_setup(grid, genome_len=2000, read_len=300, stride=120, k=15, pattern="forward"):
    genome = make_genome(GenomeSpec(length=genome_len, seed=21))
    rs = tile_reads(genome, read_len, stride, pattern)
    store = DistReadStore.from_global(grid, rs.reads)
    table = count_kmers(store, k, reliable_lo=1)
    A = build_kmer_matrix(store, table)
    return genome, rs, store, A


class TestDetect:
    def test_candidate_pairs_match_true_overlaps(self, grid4):
        genome, rs, store, A = overlap_setup(grid4)
        C, _ = detect_overlaps(A)
        assert C.dtype == SEED_DTYPE
        rows, cols, vals = C.to_global_coo()
        # neighbors in the tiling share 180bp => many kmers
        n = store.nreads
        pair_set = set(zip(rows.tolist(), cols.tolist()))
        for i in range(n - 1):
            assert (i, i + 1) in pair_set, f"missing adjacent pair {i}"
        # no self-overlaps
        assert all(r != c for r, c in pair_set)

    def test_pattern_symmetric(self, grid4):
        """C holds the strict upper triangle of the symmetric A.A^T: every
        entry has r < c, and C mirrored is the full off-diagonal pattern."""
        _, _, _, A = overlap_setup(grid4)
        C, _ = detect_overlaps(A)
        rows, cols, _ = C.to_global_coo()
        assert np.all(rows < cols)
        full = A.spgemm(A.transpose(), seed_semiring(), exclude_diagonal=True)
        frows, fcols, _ = full.to_global_coo()
        pairs = set(zip(rows.tolist(), cols.tolist()))
        assert pairs | {(c, r) for r, c in pairs} == set(
            zip(frows.tolist(), fcols.tolist())
        )

    def test_min_shared_prunes(self, grid4):
        _, _, _, A = overlap_setup(grid4)
        loose, _ = detect_overlaps(A, min_shared=1)
        strict, _ = detect_overlaps(A, min_shared=50)
        assert strict.nnz() < loose.nnz()

    def test_seed_counts_positive(self, grid4):
        _, _, _, A = overlap_setup(grid4)
        C, _ = detect_overlaps(A)
        _, _, vals = C.to_global_coo()
        assert np.all(vals["count"] >= 1)

    def test_opposite_strand_seeds_flagged(self, grid4):
        genome, rs, store, A = overlap_setup(grid4, pattern="alternate")
        C, _ = detect_overlaps(A)
        _, _, vals = C.to_global_coo()
        # alternate tiling: adjacent overlaps are opposite-strand
        assert np.any(vals["same_strand"] == 0)
        assert np.any(vals["same_strand"] == 1)

    def test_a_is_sorted_once_before_the_transpose(self, grid4, monkeypatch):
        """A's blocks are sorted by column before ``A.transpose()``, so
        A^T arrives row-sorted: an unphased A.A^T sorts each A block once
        (P sorts, not 2 * P), and the product is unchanged."""
        from repro.sparse import LocalCoo

        _, _, _, A = overlap_setup(grid4)
        want, _ = detect_overlaps(A)
        sorts = []
        sorted_by = LocalCoo.sorted_by

        def counting_sorted_by(self, order="row"):
            if self.order != order:
                sorts.append(order)
            return sorted_by(self, order)

        monkeypatch.setattr(LocalCoo, "sorted_by", counting_sorted_by)
        got, _ = detect_overlaps(A)
        monkeypatch.undo()
        assert sorts == ["col"] * grid4.nprocs
        for g, w in zip(got.blocks, want.blocks):
            assert np.array_equal(g.rows, w.rows)
            assert np.array_equal(g.cols, w.cols)
            assert np.array_equal(g.vals, w.vals)


class TestBuildOverlapGraph:
    def test_r_is_symmetric_with_mirrored_payloads(self, grid4):
        genome, rs, store, A = overlap_setup(grid4)
        C, _ = detect_overlaps(A)
        R, stats = build_overlap_graph(
            C, store, AlignmentParams(k=15, end_margin=5)
        )
        assert R.dtype == OVERLAP_DTYPE
        rows, cols, vals = R.to_global_coo()
        index = {(int(r), int(c)): v for r, c, v in zip(rows, cols, vals)}
        from repro.strgraph import mirror_direction

        for (r, c), v in index.items():
            assert (c, r) in index, f"missing mirror of ({r}, {c})"
            assert index[(c, r)]["dir"] == mirror_direction(int(v["dir"]))

    def test_stats_accounting(self, grid4):
        genome, rs, store, A = overlap_setup(grid4)
        C, _ = detect_overlaps(A)
        _, stats = build_overlap_graph(C, store, AlignmentParams(k=15, end_margin=5))
        assert stats.pairs_aligned == C.nnz()
        assert stats.dovetails > 0
        assert (
            stats.dovetails + stats.contained + stats.internal + stats.low_score
            == stats.pairs_aligned
        )

    def test_min_score_prunes_everything_when_absurd(self, grid4):
        genome, rs, store, A = overlap_setup(grid4)
        C, _ = detect_overlaps(A)
        R, stats = build_overlap_graph(
            C, store, AlignmentParams(k=15, min_score=10**9)
        )
        assert R.nnz() == 0
        assert stats.low_score == stats.pairs_aligned

    def test_contained_reads_removed(self, grid4):
        # one read fully inside another
        genome = make_genome(GenomeSpec(length=800, seed=5))
        reads = [genome[0:400], genome[100:250], genome[300:700]]
        store = DistReadStore.from_global(grid4, reads)
        table = count_kmers(store, 15, reliable_lo=1)
        A = build_kmer_matrix(store, table)
        C, _ = detect_overlaps(A)
        R, stats = build_overlap_graph(C, store, AlignmentParams(k=15, end_margin=5))
        assert stats.contained_reads >= 1
        rows, cols, _ = R.to_global_coo()
        assert 1 not in set(rows.tolist()) | set(cols.tolist())

    def test_suffix_values_sane(self, grid4):
        genome, rs, store, A = overlap_setup(grid4)
        C, _ = detect_overlaps(A)
        R, _ = build_overlap_graph(C, store, AlignmentParams(k=15, end_margin=5))
        _, _, vals = R.to_global_coo()
        assert np.all(vals["suffix"] >= 0)
        assert np.all(vals["suffix"] <= 300)  # bounded by read length

    @pytest.mark.parametrize("mode", ["diag", "dp"])
    def test_result_invariant_to_batch_size(self, grid4, mode):
        """R and the stats must not depend on the kernel chunking."""
        genome, rs, store, A = overlap_setup(
            grid4, pattern="alternate", genome_len=1500, stride=150
        )
        C, _ = detect_overlaps(A)
        results = []
        for batch_size in (1, 7, 10**6):
            R, stats = build_overlap_graph(
                C,
                store,
                AlignmentParams(k=15, mode=mode, end_margin=5, batch_size=batch_size),
            )
            results.append((R.to_global_coo(), stats))
        (rows0, cols0, vals0), stats0 = results[0]
        for (rows, cols, vals), stats in results[1:]:
            assert np.array_equal(rows, rows0)
            assert np.array_equal(cols, cols0)
            assert np.array_equal(vals, vals0)
            assert stats.per_kind == stats0.per_kind
            assert np.array_equal(stats.contained_ids, stats0.contained_ids)

    def test_contained_ids_sorted_unique(self, grid4):
        genome = make_genome(GenomeSpec(length=800, seed=5))
        reads = [genome[0:400], genome[100:250], genome[300:700]]
        store = DistReadStore.from_global(grid4, reads)
        table = count_kmers(store, 15, reliable_lo=1)
        A = build_kmer_matrix(store, table)
        C, _ = detect_overlaps(A)
        _, stats = build_overlap_graph(C, store, AlignmentParams(k=15, end_margin=5))
        ids = stats.contained_ids
        assert ids.dtype == np.int64
        assert np.array_equal(ids, np.unique(ids))
