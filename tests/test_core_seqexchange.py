"""Unit tests for read-sequence redistribution and the count-limit path."""

import numpy as np
import pytest

from repro.core import SequenceExchangeResult, exchange_sequences
from repro.errors import DistributionError
from repro.mpi import ProcGrid, SimWorld, cori_haswell
from repro.mpi.bigcount import MPI_COUNT_LIMIT, plan_transfer
from repro.seq import DistReadStore, PackedReads, dna
from repro.sparse import DistVector


def make_store(grid, n=16, seed=0):
    rng = np.random.default_rng(seed)
    reads = [dna.random_codes(rng, int(rng.integers(20, 50))) for _ in range(n)]
    return reads, DistReadStore.from_global(grid, reads)


class TestExchange:
    def test_reads_land_on_assigned_ranks(self, grid):
        reads, store = make_store(grid)
        rng = np.random.default_rng(1)
        assignment = rng.integers(0, grid.nprocs, size=len(reads))
        p = DistVector.from_global(grid, assignment.astype(np.int64))
        result = exchange_sequences(store, p)
        for rank, shard in enumerate(result.shards):
            expected = np.flatnonzero(assignment == rank)
            assert np.array_equal(shard.ids, expected)
            for rid in expected:
                got = shard.codes(shard.index_of(int(rid)))
                assert np.array_equal(got, reads[rid])

    def test_unassigned_reads_dropped(self, grid4):
        reads, store = make_store(grid4)
        assignment = np.full(len(reads), -1, dtype=np.int64)
        assignment[3] = 2
        p = DistVector.from_global(grid4, assignment)
        result = exchange_sequences(store, p)
        total = sum(s.count for s in result.shards)
        assert total == 1
        assert result.shards[2].ids[0] == 3

    def test_shards_are_id_sorted(self, grid4):
        reads, store = make_store(grid4, n=20, seed=2)
        assignment = np.zeros(len(reads), dtype=np.int64)  # all to rank 0
        p = DistVector.from_global(grid4, assignment)
        result = exchange_sequences(store, p)
        assert np.array_equal(result.shards[0].ids, np.arange(len(reads)))

    def test_misaligned_vector_rejected(self, grid4):
        reads, store = make_store(grid4)
        p = DistVector.zeros(grid4, len(reads) + 1)
        with pytest.raises(DistributionError):
            exchange_sequences(store, p)

    @pytest.mark.parametrize("bad", [4, 7, -2])
    def test_assignment_outside_the_ranks_rejected(self, grid4, bad):
        """``-1`` means "needed by no local assembly"; any other value
        outside ``[0, P)`` used to drop the read silently."""
        reads, store = make_store(grid4, n=10)
        assignment = np.arange(10, dtype=np.int64) % 4
        assignment[6] = bad  # read 6 lives on rank 2
        p = DistVector.from_global(grid4, assignment)
        with pytest.raises(DistributionError, match="rank 2"):
            exchange_sequences(store, p)
        assert len(grid4.world.log) == 0
        assert grid4.world.clock.total_seconds() == 0.0


class TestCountLimit:
    def test_small_limit_triggers_contiguous_datatype(self, grid4):
        reads, store = make_store(grid4, n=12, seed=3)
        rng = np.random.default_rng(4)
        p = DistVector.from_global(
            grid4, rng.integers(0, 4, size=len(reads)).astype(np.int64)
        )
        result = exchange_sequences(store, p, count_limit=8)
        assert result.used_contiguous_datatype
        # every transfer stays a single message (the paper's point)
        assert all(plan.messages == 1 for plan in result.plans)

    def test_limit_does_not_change_payload(self, grid4):
        reads, store = make_store(grid4, n=12, seed=5)
        rng = np.random.default_rng(6)
        assignment = rng.integers(0, 4, size=len(reads)).astype(np.int64)

        def run(limit):
            p = DistVector.from_global(grid4, assignment.copy())
            res = exchange_sequences(store, p, count_limit=limit)
            return [
                (list(s.ids), s.buffer.tobytes()) for s in res.shards
            ]

        unlimited = run(2**31 - 1)
        tiny = run(4)
        assert unlimited == tiny

    def test_total_bytes_accounting(self, grid4):
        reads, store = make_store(grid4, n=12, seed=7)
        p = DistVector.from_global(
            grid4,
            np.arange(len(reads), dtype=np.int64) % 4,
        )
        result = exchange_sequences(store, p)
        # bytes moved = packed sizes of reads leaving their owner
        moved = 0
        for r in range(4):
            lo, hi = grid4.vec_block(len(reads), r)
            for rid in range(lo, hi):
                if rid % 4 != r:
                    moved += len(reads[rid])
        assert result.total_bytes == moved


def _exchange_reference(reads, p, count_limit=MPI_COUNT_LIMIT):
    """``exchange_sequences`` as it was before it moved onto
    ``SimComm.route``: P x P ``select``s, one hand-split ``alltoall`` and a
    per-read repack.  Kept as the oracle, each per-rank loop's charges
    made in one ``charge_compute_all``."""
    grid, world = reads.grid, reads.grid.world
    P = grid.nprocs
    if p.n != reads.nreads:
        raise DistributionError(
            f"assignment vector length {p.n} != read count {reads.nreads}"
        )

    send = [[None] * P for _ in range(P)]
    plans = []
    total_bytes = 0
    for r in range(P):
        shard = reads.shards[r]
        dest = np.asarray(p.blocks[r], dtype=np.int64)
        if dest.size != shard.count:
            raise DistributionError(
                f"rank {r}: assignment block ({dest.size}) does not align "
                f"with read shard ({shard.count})"
            )
        for o in range(P):
            mine = np.flatnonzero(dest == o)
            packed = shard.select(mine)
            send[r][o] = (packed.buffer, packed.offsets, packed.ids)
            if o != r and packed.buffer.size:
                plan = plan_transfer(int(packed.buffer.size), count_limit)
                plans.append(plan)
                total_bytes += plan.nbytes
    world.charge_compute_all([shard.total_bases for shard in reads.shards])
    recv = world.comm.alltoall(send)

    shards, ops = [], [0] * P
    for rank in range(P):
        buffers, lengths, ids = [], [], []
        for src in range(P):
            buf, offs, rid = recv[rank][src]
            if rid.size:
                buffers.append(buf)
                lengths.append(np.diff(offs))
                ids.append(rid)
        if not ids:
            shards.append(PackedReads.empty())
            continue
        all_ids = np.concatenate(ids)
        all_lengths = np.concatenate(lengths)
        big = np.concatenate(buffers)
        offsets = np.zeros(all_ids.size + 1, dtype=np.int64)
        np.cumsum(all_lengths, out=offsets[1:])
        order = np.argsort(all_ids, kind="stable")
        pieces = [big[offsets[i] : offsets[i + 1]] for i in order]
        shards.append(PackedReads.from_codes(pieces, all_ids[order]))
        ops[rank] = int(big.size)
    world.charge_compute_all(ops)
    return SequenceExchangeResult(
        shards=shards, plans=plans, total_bytes=total_bytes
    )


@pytest.mark.parametrize("P", [1, 4, 9, 16])
@pytest.mark.parametrize("nreads", [0, 3, 60])
def test_exchange_matches_the_hand_split_reference(P, nreads):
    """Same shards, plans and bytes, the same single event and clocks."""
    rng = np.random.default_rng(P * 11 + nreads)
    reads = [dna.random_codes(rng, int(rng.integers(0, 30))) for _ in range(nreads)]
    assignment = rng.integers(-1, P, size=nreads).astype(np.int64)
    store, twin_store = (
        DistReadStore.from_global(ProcGrid(SimWorld(P, cori_haswell())), reads)
        for _ in range(2)
    )
    got, want = (
        fn(s, DistVector.from_global(s.grid, assignment.copy()), count_limit=16)
        for fn, s in ((exchange_sequences, store), (_exchange_reference, twin_store))
    )
    for g, w in zip(got.shards, want.shards):
        for name in ("buffer", "offsets", "ids"):
            assert getattr(g, name).dtype == getattr(w, name).dtype
            assert np.array_equal(getattr(g, name), getattr(w, name))
    assert got.plans == want.plans
    assert got.total_bytes == want.total_bytes
    world, twin = store.grid.world, twin_store.grid.world
    assert len(world.log) == len(twin.log) == 1
    assert world.log.events == twin.log.events
    assert np.array_equal(
        world.clock.per_rank_seconds("default"), twin.clock.per_rank_seconds("default")
    )


def test_read_transports_select_once_per_rank(monkeypatch):
    """A structural guard, not a timing: one ``fetch`` plus one
    ``exchange_sequences`` cut each rank's packed buffer once -- the
    hand-split versions called ``select`` 2 P^2 times."""
    P = 64
    rng = np.random.default_rng(64)
    reads = [dna.random_codes(rng, int(rng.integers(5, 30))) for _ in range(150)]
    store = DistReadStore.from_global(ProcGrid(SimWorld(P, cori_haswell())), reads)
    p = DistVector.from_global(store.grid, rng.integers(-1, P, size=150))
    calls = []
    select = PackedReads.select
    monkeypatch.setattr(
        PackedReads, "select", lambda self, idx: calls.append(1) or select(self, idx)
    )
    store.fetch([rng.integers(0, 150, size=8) for _ in range(P)])
    exchange_sequences(store, p)
    assert 0 < len(calls) <= 2 * P
