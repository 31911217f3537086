"""Unit tests for packed read storage and the distributed read store."""

import numpy as np
import pytest

from repro.errors import SequenceError
from repro.mpi import ProcGrid, SimWorld, cori_haswell
from repro.seq import DistReadStore, PackedReads, dna
from repro.util import gather_pieces


class TestPackedReads:
    def test_from_strings_roundtrip(self):
        pr = PackedReads.from_strings(["ACGT", "TT", "GGGA"])
        assert pr.count == 3
        assert pr.string(0) == "ACGT"
        assert pr.string(1) == "TT"
        assert pr.string(2) == "GGGA"
        assert pr.total_bases == 10

    def test_codes_are_zero_copy_views(self):
        pr = PackedReads.from_strings(["ACGT", "TTT"])
        view = pr.codes(1)
        assert view.base is pr.buffer

    def test_subsequence_view(self):
        pr = PackedReads.from_strings(["ACGTACGT"])
        assert dna.decode(pr.subsequence(0, 2, 6)) == "GTAC"

    def test_lengths(self):
        pr = PackedReads.from_strings(["A", "ACG", ""])
        assert list(pr.lengths()) == [1, 3, 0]

    def test_index_of_bisects_ids(self):
        pr = PackedReads.from_codes(
            [dna.encode("AC"), dna.encode("GG")], ids=[10, 42]
        )
        assert pr.index_of(42) == 1
        with pytest.raises(SequenceError):
            pr.index_of(7)

    def test_indices_of_vectorized(self):
        pr = PackedReads.from_codes(
            [dna.encode("AC"), dna.encode("GG"), dna.encode("TT")],
            ids=[10, 42, 99],
        )
        assert list(pr.indices_of(np.array([99, 10, 42, 10]))) == [2, 0, 1, 0]
        assert pr.indices_of(np.empty(0, dtype=np.int64)).size == 0
        for missing in ([7], [43], [100], [42, 7]):
            with pytest.raises(SequenceError):
                pr.indices_of(np.array(missing))
        with pytest.raises(SequenceError):
            PackedReads.empty().indices_of(np.array([1]))

    def test_select_preserves_order(self):
        pr = PackedReads.from_strings(["AA", "CC", "GG"])
        sub = pr.select(np.array([2, 0]))
        assert sub.string(0) == "GG"
        assert sub.string(1) == "AA"
        assert list(sub.ids) == [2, 0]

    def test_select_empty_and_duplicates(self):
        pr = PackedReads.from_strings(["AA", "CCC", ""])
        assert pr.select(np.empty(0, dtype=np.int64)).count == 0
        dup = pr.select(np.array([1, 1, 2]))
        assert [dup.string(i) for i in range(3)] == ["CCC", "CCC", ""]

    def test_gather_pieces_forward_and_strided(self):
        buf = np.arange(10, dtype=np.uint8)
        codes, offsets = gather_pieces(
            buf,
            base=np.array([0, 9, 4]),
            lengths=np.array([3, 4, 0]),
            sign=np.array([1, -1, 1]),
        )
        assert offsets.tolist() == [0, 3, 7, 7]
        assert codes.tolist() == [0, 1, 2, 9, 8, 7, 6]
        empty_codes, empty_off = gather_pieces(
            buf, np.empty(0, np.int64), np.empty(0, np.int64)
        )
        assert empty_codes.size == 0 and empty_off.tolist() == [0]

    def test_empty(self):
        pr = PackedReads.empty()
        assert pr.count == 0 and pr.total_bases == 0

    def test_iteration(self):
        pr = PackedReads.from_strings(["AC", "GT"])
        items = [(i, dna.decode(c)) for i, c in pr]
        assert items == [(0, "AC"), (1, "GT")]

    def test_validation(self):
        with pytest.raises(SequenceError):
            PackedReads(
                np.zeros(4, np.uint8), np.array([0, 2]), np.array([0, 1])
            )
        with pytest.raises(SequenceError):
            PackedReads(
                np.zeros(4, np.uint8), np.array([0, 2, 1]), np.array([0, 1])
            )


class TestDistReadStore:
    def _reads(self, n=23, seed=0):
        rng = np.random.default_rng(seed)
        return [dna.random_codes(rng, int(rng.integers(5, 30))) for _ in range(n)]

    def test_distribution_covers_all_reads(self, grid):
        reads = self._reads()
        store = DistReadStore.from_global(grid, reads)
        assert store.nreads == len(reads)
        total = sum(s.count for s in store.shards)
        assert total == len(reads)

    def test_shards_align_with_vec_blocks(self, grid):
        reads = self._reads()
        store = DistReadStore.from_global(grid, reads)
        for rank, shard in enumerate(store.shards):
            lo, hi = grid.vec_block(len(reads), rank)
            assert np.array_equal(shard.ids, np.arange(lo, hi))

    def test_codes_global_consistency(self, grid4):
        reads = self._reads()
        store = DistReadStore.from_global(grid4, reads)
        for i in (0, 10, 22):
            assert np.array_equal(store.codes_global(i), reads[i])

    def test_owner_of_matches_shards(self, grid):
        reads = self._reads()
        store = DistReadStore.from_global(grid, reads)
        for rank, shard in enumerate(store.shards):
            for rid in shard.ids:
                assert int(store.owner_of(int(rid))) == rank

    def test_fetch_delivers_requested_reads(self, grid):
        reads = self._reads()
        store = DistReadStore.from_global(grid, reads)
        rng = np.random.default_rng(1)
        requests = [
            rng.choice(len(reads), size=5, replace=False)
            for _ in range(grid.nprocs)
        ]
        fetched = store.fetch(requests)
        for req, pack in zip(requests, fetched):
            for rid in req:
                got = pack.codes(pack.index_of(int(rid)))
                assert np.array_equal(got, reads[rid])

    def test_fetch_dedupes_requests(self, grid4):
        reads = self._reads()
        store = DistReadStore.from_global(grid4, reads)
        fetched = store.fetch(
            [np.array([3, 3, 3])] + [np.empty(0, dtype=np.int64)] * 3
        )
        assert fetched[0].count == 1

    @pytest.mark.parametrize("bad", [-1, 23, 40])
    def test_fetch_rejects_ids_outside_the_store(self, grid4, bad):
        """Raised before anything is recorded or charged (the hand-split
        fetch returned empty shards and recorded two events)."""
        store = DistReadStore.from_global(grid4, self._reads())
        requests = [np.array([1, 2]), np.empty(0, np.int64), np.array([5, bad]),
                    np.array([0])]
        with pytest.raises(SequenceError, match="rank 2"):
            store.fetch(requests)
        assert len(grid4.world.log) == 0
        assert grid4.world.clock.total_seconds() == 0.0

    def test_lengths_and_total(self, grid4):
        reads = self._reads()
        store = DistReadStore.from_global(grid4, reads)
        assert store.total_bases() == sum(len(r) for r in reads)
        assert np.array_equal(
            store.lengths_global(), np.array([len(r) for r in reads])
        )


def _fetch_reference(self, requests):
    """``DistReadStore.fetch`` as it was before it moved onto
    ``SimComm.route``: two hand-split ``alltoall``s, P x P ``select``s and a
    per-read repack.  Kept as the oracle, each per-rank loop's charges made
    in one ``charge_compute_all`` (it also returns the reply cells, whose
    ``(buffer, offsets)`` are what the new reply is charged for).
    """
    grid = self.grid
    world = grid.world
    P = grid.nprocs
    send = [[None] * P for _ in range(P)]
    for r in range(P):
        ids = np.unique(np.asarray(requests[r], dtype=np.int64))
        owner = np.asarray(self.owner_of(ids))
        for o in range(P):
            send[r][o] = ids[owner == o]
    world.charge_compute_all([sum(a.size for a in row) for row in send])
    recv = world.comm.alltoall(send)
    reply = [[None] * P for _ in range(P)]
    for o in range(P):
        shard = self.shards[o]
        lo, _hi = grid.vec_block(self.nreads, o)
        for r in range(P):
            ids = recv[o][r]
            reply[o][r] = shard.select(ids - lo)
    world.charge_compute_all([sum(a.size for a in row) for row in recv])
    answers = world.comm.alltoall(reply)
    out = []
    for r in range(P):
        pieces = [p for p in answers[r] if p.count]
        if not pieces:
            out.append(PackedReads.empty())
            continue
        buffer = np.concatenate([p.buffer for p in pieces])
        lengths = np.concatenate([p.lengths() for p in pieces])
        ids = np.concatenate([p.ids for p in pieces])
        order = np.argsort(ids, kind="stable")
        # repack in id order so index_of can bisect
        offsets = np.zeros(ids.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        reordered = [buffer[offsets[i] : offsets[i + 1]] for i in order]
        out.append(PackedReads.from_codes(reordered, ids[order]))
    return out, reply


@pytest.mark.parametrize("P", [1, 4, 9, 16])
@pytest.mark.parametrize("nreads", [0, 3, 60])
def test_fetch_matches_the_hand_split_reference(P, nreads):
    """Same shards, same request event, same compute; the reply event is
    what ``alltoall`` records for per-message ``(buffer, offsets)``."""
    rng = np.random.default_rng(P * 7 + nreads)
    # reads of length 0 included; unsorted requests with duplicates, and
    # some ranks asking for nothing
    reads = [dna.random_codes(rng, int(rng.integers(0, 30))) for _ in range(nreads)]
    requests = [
        rng.integers(0, nreads, size=rng.integers(0, 25) if nreads and r % 3 else 0)
        for r in range(P)
    ]
    store, twin_store = (
        DistReadStore.from_global(ProcGrid(SimWorld(P, cori_haswell())), reads)
        for _ in range(2)
    )
    got = store.fetch(requests)
    want, reply = _fetch_reference(twin_store, requests)
    for g, w in zip(got, want):
        for name in ("buffer", "offsets", "ids"):
            assert getattr(g, name).dtype == getattr(w, name).dtype
            assert np.array_equal(getattr(g, name), getattr(w, name))
    world, twin = store.grid.world, twin_store.grid.world
    assert len(world.log) == len(twin.log) == 2
    assert world.log.events[0] == twin.log.events[0]
    assert world.clock.stage_compute_seconds("default") == (
        twin.clock.stage_compute_seconds("default")
    )
    twin.comm.alltoall(
        [[(cell.buffer, cell.offsets) for cell in row] for row in reply]
    )
    assert world.log.events[1] == twin.log.events[2]
