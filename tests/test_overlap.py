"""Unit tests for overlap detection (C = A.A^T) and the alignment filter."""

import numpy as np
import pytest

from repro.kmer import build_kmer_matrix, count_kmers
from repro.mpi import ProcGrid, SimWorld, cori_haswell
from repro.overlap import AlignmentParams, build_overlap_graph, detect_overlaps
from repro.overlap import filter as filter_mod
from repro.seq import (
    DistReadStore,
    GenomeSpec,
    dna,
    make_genome,
    sample_reads,
    tile_reads,
)
from repro.sparse.semiring import seed_semiring
from repro.sparse.types import OVERLAP_DTYPE, SEED_DTYPE
from repro.telemetry import Tracer


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
        A^T arrives row-sorted: an unphased A.A^T sorts each A block at
        most once -- not at all when ``build_kmer_matrix`` assembled A
        column-sorted, P sorts for a row-sorted A -- and the product is
        unchanged."""
        from repro.sparse import DistSparseMatrix, LocalCoo

        _, _, _, A = overlap_setup(grid4)
        assert {blk.order for blk in A.blocks} == {"col"}
        want, _ = detect_overlaps(A)
        by_row = DistSparseMatrix(
            A.grid, A.shape, [blk.sorted_by("row") for blk in A.blocks]
        )
        sorted_by = LocalCoo.sorted_by
        for operand, want_sorts in ((A, []), (by_row, ["col"] * grid4.nprocs)):
            sorts = []

            def counting_sorted_by(self, order="row"):
                if self.order != order:
                    sorts.append(order)
                return sorted_by(self, order)

            monkeypatch.setattr(LocalCoo, "sorted_by", counting_sorted_by)
            got, _ = detect_overlaps(operand)
            monkeypatch.undo()
            assert sorts == want_sorts
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

    def test_read_contained_on_two_ranks_counts_once(self, grid4):
        """X sits inside both Y and Z; the three candidate pairs land on
        three ranks, so X is contained on two of them and still counts as
        one contained read."""
        genome = make_genome(GenomeSpec(length=800, seed=5))
        reads = [genome[0:400], genome[320:390], genome[300:700]]
        store = DistReadStore.from_global(grid4, reads)
        A = build_kmer_matrix(store, count_kmers(store, 15, reliable_lo=1))
        C, _ = detect_overlaps(A)
        assert C.nnz() == 3
        _, stats = build_overlap_graph(C, store, AlignmentParams(k=15, end_margin=5))
        assert stats.contained == 2
        assert stats.dovetails == 1
        assert stats.contained_ids.tolist() == [1]
        assert stats.contained_reads == 1


def _cut_segments(world, cuts):
    """Make ``world`` call each segment step once per piece of the rank
    range cut at ``cuts``, inside the one superstep."""
    map_segments = world.map_segments
    bounds = [0, *cuts, world.nprocs]

    def cut(fn, *per_rank_args):
        def pieces(ctxs, *arg_lists):
            return [
                result
                for lo, hi in zip(bounds[:-1], bounds[1:])
                for result in fn(ctxs[lo:hi], *(col[lo:hi] for col in arg_lists))
            ]

        return map_segments(pieces, *per_rank_args)

    world.map_segments = cut


@pytest.fixture(scope="module")
def segment_reads():
    genome = make_genome(GenomeSpec(length=1500, seed=8))
    return sample_reads(
        genome, depth=8, mean_length=300, rng=9, error_rate=0.01,
        error_mix=(0.8, 0.1, 0.1),
    ).reads


def _split_tasks(how, nprocs):
    """A ``_redistribute_tasks`` that re-deals the tasks over the ranks."""
    original = filter_mod._redistribute_tasks

    def redistribute(upper):
        gi, gj, seeds = (np.concatenate(col) for col in zip(*original(upper)))
        rng = np.random.default_rng(len(gi))
        owner = {
            "random": rng.integers(0, nprocs, gi.size),
            "one_rank": np.full(gi.size, nprocs - 2),
            "empty_ranks": rng.choice([0, 3, 4], gi.size),
        }[how]
        return [(gi[owner == r], gj[owner == r], seeds[owner == r]) for r in range(nprocs)]

    return redistribute


def _aligned(reads, cuts, params):
    world = SimWorld(9, cori_haswell())
    if cuts is not None:
        _cut_segments(world, cuts)
    tracer = Tracer().attach(world)
    store = DistReadStore.from_global(ProcGrid(world), reads)
    C, _ = detect_overlaps(build_kmer_matrix(store, count_kmers(store, 15, reliable_lo=2)))
    with world.stage_scope("Alignment"):
        R, stats = build_overlap_graph(C, store, params)
    clock = {s: world.clock.per_rank_seconds(s).tolist() for s in world.clock.stages()}
    return R.to_global_coo(), stats, clock, tracer.digest(), len(world.log)


class TestSegmentedAlignment:
    """One Alignment segment over every rank, one per rank and random cuts
    give equal R, stats, charges and traces."""

    @pytest.mark.parametrize(
        "how,mode,batch_size",
        [
            (how, mode, b)
            for how in (None, "random", "one_rank", "empty_ranks")
            for mode in ("diag", "dp")
            for b in (7, 2048)
        ]
        # one pair per kernel call (slow in dp; the cut is mode-blind)
        + [("random", "diag", 1)],
    )
    def test_segmentation_invariant(self, segment_reads, monkeypatch, how, mode, batch_size):
        if how is not None:
            monkeypatch.setattr(filter_mod, "_redistribute_tasks", _split_tasks(how, 9))
        params = AlignmentParams(
            k=15, mode=mode, xdrop=7, min_score=60, end_margin=20, batch_size=batch_size
        )
        rng = np.random.default_rng(batch_size)
        runs = [
            _aligned(segment_reads, cuts, params)
            for cuts in (
                None,
                range(1, 9),
                np.flatnonzero(rng.random(8) < 0.5) + 1,
            )
        ]
        (rows, cols, vals), stats, clock, digest, nlog = runs[0]
        assert stats.pairs_aligned > 200 and stats.low_score
        assert stats.dovetails and stats.contained > stats.contained_reads
        for (rows2, cols2, vals2), stats2, clock2, digest2, nlog2 in runs[1:]:
            assert np.array_equal(rows2, rows) and np.array_equal(cols2, cols)
            assert np.array_equal(vals2, vals)
            assert np.array_equal(stats2.contained_ids, stats.contained_ids)
            stats2.contained_ids = stats.contained_ids
            assert stats2 == stats
            assert clock2 == clock
            assert (digest2, nlog2) == (digest, nlog)
