"""Unit tests for the simulated communicator and its collectives."""

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.mpi import SimWorld, block_owner, block_range, block_sizes, cori_haswell, payload_nbytes, zero_cost
from repro.sparse.types import SEED_DTYPE
from repro.util import cumsum0


class TestBlockDistribution:
    def test_ranges_partition_exactly(self):
        for n in (0, 1, 7, 100, 101):
            for parts in (1, 3, 8):
                ranges = [block_range(n, parts, i) for i in range(parts)]
                assert ranges[0][0] == 0
                assert ranges[-1][1] == n
                for (a, b), (c, d) in zip(ranges, ranges[1:]):
                    assert b == c
                    assert b >= a and d >= c

    def test_sizes_match_ranges(self):
        sizes = block_sizes(103, 8)
        assert sizes.sum() == 103
        for i in range(8):
            lo, hi = block_range(103, 8, i)
            assert sizes[i] == hi - lo

    def test_remainder_spread_over_leading_blocks(self):
        sizes = block_sizes(10, 4)
        assert list(sizes) == [3, 3, 2, 2]

    def test_owner_inverts_range(self):
        n, parts = 103, 8
        idx = np.arange(n)
        owners = block_owner(n, parts, idx)
        for i in range(parts):
            lo, hi = block_range(n, parts, i)
            assert np.all(owners[lo:hi] == i)

    def test_owner_scalar(self):
        assert block_owner(10, 4, 0) == 0
        assert block_owner(10, 4, 9) == 3

    def test_invalid_block_index(self):
        with pytest.raises(IndexError):
            block_range(10, 4, 4)
        with pytest.raises(ValueError):
            block_range(10, 0, 0)


class TestPayloadNbytes:
    def test_numpy_exact(self):
        assert payload_nbytes(np.zeros(10, dtype=np.int64)) == 80

    def test_bytes_and_str(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes("abcd") == 4

    def test_containers_sum(self):
        assert payload_nbytes([np.zeros(2, np.int8), b"xy"]) == 4
        assert payload_nbytes((1, 2.0)) == 16
        assert payload_nbytes({"k": b"vv"}) == 3

    def test_none_is_free(self):
        assert payload_nbytes(None) == 0


@pytest.mark.xfail(
    strict=True,
    reason="payload_nbytes looks for __dict__ and LocalCoo has __slots__, so "
    "every SUMMA panel bcast and the transpose sendrecv are charged 8 bytes; "
    "fixing it moves modeled_s, so it waits for the next cost-model PR",
)
def test_payload_nbytes_counts_localcoo():
    from repro.sparse import LocalCoo

    blk = LocalCoo((4, 4), np.arange(4), np.arange(4), np.zeros(4, dtype=SEED_DTYPE))
    assert payload_nbytes(blk) >= blk.nbytes


class TestCollectives:
    def test_bcast_delivers_to_all(self):
        w = SimWorld(4, zero_cost())
        out = w.comm.bcast({"x": 1}, root=2)
        assert len(out) == 4
        assert all(o == {"x": 1} for o in out)

    def test_bcast_bad_root(self):
        w = SimWorld(4, zero_cost())
        with pytest.raises(CommunicatorError):
            w.comm.bcast(1, root=4)

    def test_allgather_returns_everything(self):
        w = SimWorld(4, zero_cost())
        out = w.comm.allgather([10, 20, 30, 40])
        assert out == [10, 20, 30, 40]

    def test_allgather_wrong_arity(self):
        w = SimWorld(4, zero_cost())
        with pytest.raises(CommunicatorError):
            w.comm.allgather([1, 2, 3])

    def test_alltoall_transposes(self):
        w = SimWorld(3, zero_cost())
        send = [[f"{i}->{j}" for j in range(3)] for i in range(3)]
        recv = w.comm.alltoall(send)
        for j in range(3):
            assert recv[j] == [f"{i}->{j}" for i in range(3)]

    def test_alltoall_ragged_row_rejected(self):
        w = SimWorld(2, zero_cost())
        with pytest.raises(CommunicatorError):
            w.comm.alltoall([[1, 2], [1]])

    def test_allreduce_folds(self):
        w = SimWorld(4, zero_cost())
        assert w.comm.allreduce([1, 2, 3, 4], lambda a, b: a + b) == 10

    def test_reduce_scatter_sums_and_splits(self):
        w = SimWorld(4, zero_cost())
        arrays = [np.full(10, r, dtype=np.int64) for r in range(4)]
        out = w.comm.reduce_scatter(arrays)
        assert len(out) == 4
        glued = np.concatenate(out)
        assert np.array_equal(glued, np.full(10, 6, dtype=np.int64))
        assert [len(o) for o in out] == [3, 3, 2, 2]

    def test_reduce_scatter_shape_mismatch(self):
        w = SimWorld(2, zero_cost())
        with pytest.raises(CommunicatorError):
            w.comm.reduce_scatter([np.zeros(3), np.zeros(4)])

    def test_sendrecv_exchanges_with_partner(self):
        w = SimWorld(4, zero_cost())
        partners = [0, 2, 1, 3]  # 1 <-> 2; 0 and 3 self
        out = w.comm.sendrecv(["a", "b", "c", "d"], partners)
        assert out == ["a", "c", "b", "d"]

    def test_reduce_scatter_custom_blocks(self):
        w = SimWorld(3, zero_cost())
        out = w.comm.reduce_scatter([np.arange(6)] * 3, block_sizes=[0, 4, 2])
        assert [o.tolist() for o in out] == [[], [0, 3, 6, 9], [12, 15]]

    def test_sendrecv_charges_only_the_pairs_that_move(self):
        w = SimWorld(4, cori_haswell())
        w.comm.sendrecv([b"ab", b"c", b"def", b"g"], [0, 2, 1, 3])
        (e,) = w.log.events
        assert (e.op, e.total_bytes, e.max_bytes, e.messages) == ("ptp", 4, 3, 2)

    def test_sendrecv_requires_involution(self):
        w = SimWorld(3, zero_cost())
        with pytest.raises(CommunicatorError):
            w.comm.sendrecv(["a", "b", "c"], [1, 2, 0])

    def test_reduce_scatter_rejected_blocks_charge_nothing(self):
        w = SimWorld(2, cori_haswell())
        for bad in ([4], [6, -2], [1, 1]):  # [1, 1] sums to 2, not 4
            with pytest.raises(CommunicatorError):
                w.comm.reduce_scatter([np.zeros(4)] * 2, block_sizes=bad)
            assert len(w.log) == 0
            assert w.clock.stages() == []

    def test_gather(self):
        w = SimWorld(3, zero_cost())
        assert w.comm.gather([7, 8, 9], root=1) == [7, 8, 9]


class TestChargesAndStages:
    def test_collectives_charge_modeled_time(self):
        w = SimWorld(4, cori_haswell())
        w.comm.allgather([np.zeros(100)] * 4)
        assert w.clock.total_seconds() > 0
        assert len(w.log) == 1

    def test_stage_scoping_attributes_charges(self):
        w = SimWorld(4, cori_haswell())
        with w.stage_scope("phase-a"):
            w.comm.allgather([1, 2, 3, 4])
        with w.stage_scope("phase-b"):
            w.comm.allgather([1, 2, 3, 4])
        assert set(w.clock.stages()) == {"phase-a", "phase-b"}
        assert w.clock.stage_seconds("phase-a") > 0
        assert w.clock.stage_seconds("phase-b") > 0

    def test_nested_stage_scopes(self):
        w = SimWorld(4, cori_haswell())
        with w.stage_scope("outer"):
            with w.stage_scope("outer/inner"):
                w.comm.allgather([1, 2, 3, 4])
            assert w.stage == "outer"
        assert "outer/inner" in w.clock.stages()

    def test_charge_compute_per_rank(self):
        w = SimWorld(4, cori_haswell())
        w.charge_compute_all([0, 0, 1_000_000, 0])
        per_rank = w.clock.per_rank_seconds("default")
        assert per_rank[2] > 0
        assert per_rank[0] == 0

    def test_charge_compute_all_wrong_arity(self):
        w = SimWorld(4, cori_haswell())
        with pytest.raises(CommunicatorError):
            w.charge_compute_all([1, 2, 3])

    def test_self_sends_are_free(self):
        w = SimWorld(4, cori_haswell())
        w.comm.sendrecv([b"x"] * 4, [0, 1, 2, 3])
        assert w.clock.total_seconds() == 0.0

    def test_subcomm_validates_ranks(self):
        w = SimWorld(4, zero_cost())
        with pytest.raises(CommunicatorError):
            w.subcomm([0, 0])
        with pytest.raises(CommunicatorError):
            w.subcomm([5])
        with pytest.raises(CommunicatorError):
            w.subcomm([])

    def test_world_size_validation(self):
        with pytest.raises(CommunicatorError):
            SimWorld(0)


def _route_case(P, scenario, rng):
    """Per-rank destinations for one named traffic shape."""
    sizes = rng.integers(0, 40, size=P)
    if scenario == "empty_ranks":
        sizes[::2] = 0
    dests = [rng.integers(0, P, size=n) for n in sizes]
    if scenario == "all_to_one":
        dests = [np.full(n, P - 1) for n in sizes]
    elif scenario == "self_only":
        dests = [np.full(n, r) for r, n in enumerate(sizes)]
    elif scenario == "sparse":
        # each sender talks to at most 4 receivers: most cells are empty
        dests = [
            rng.choice(rng.choice(P, size=min(P, 4), replace=False), size=n)
            for n in sizes
        ]
    return dests


def _route_columns(dests, rng):
    """An int64, a structured (``SEED_DTYPE``) and a 2-D column per rank."""
    ids, seeds, boxes = [], [], []
    for d in dests:
        ids.append(rng.integers(0, 10**9, size=d.size))
        s = np.zeros(d.size, dtype=SEED_DTYPE)
        s["pos_a"] = rng.integers(0, 1000, size=d.size)
        s["count"] = rng.integers(1, 5, size=d.size)
        seeds.append(s)
        boxes.append(rng.random((d.size, 3)).astype(np.float32))
    return ids, seeds, boxes


def _ragged_column(dests, rng):
    """A ragged ``(values, offsets)`` column per rank: uint8 rows of 0-5
    values (zero-length rows included)."""
    col = []
    for d in dests:
        offsets = cumsum0(rng.integers(0, 6, size=d.size))
        col.append((rng.integers(0, 4, size=offsets[-1]).astype(np.uint8), offsets))
    return col


def _rows(entry, mask):
    """The hand split: the rows of one rank's column entry under ``mask``."""
    if not isinstance(entry, tuple):
        return entry[mask]
    values, offsets = entry
    picked = [values[offsets[k] : offsets[k + 1]] for k in np.flatnonzero(mask)]
    return (
        np.concatenate(picked + [values[:0]]),
        cumsum0([len(row) for row in picked]),
    )


def _joined(cells):
    """What a receiver holds after concatenating its P incoming cells."""
    if not isinstance(cells[0], tuple):
        return np.concatenate(cells)
    return (
        np.concatenate([values for values, _ in cells]),
        cumsum0(np.concatenate([np.diff(offsets) for _, offsets in cells])),
    )


def _assert_same(got, want):
    """Equal arrays, or equal ``(values, offsets)`` pairs, dtype included."""
    if not isinstance(want, tuple):
        got, want = (got,), (want,)
    assert isinstance(got, tuple) and len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def _event_fields(world):
    e = world.log.events[-1]
    return (e.op, e.stage, e.nprocs, e.total_bytes, e.max_bytes, e.messages,
            e.modeled_seconds)


@pytest.mark.parametrize("P", [1, 4, 9, 16, 64, 256])
@pytest.mark.parametrize(
    "scenario", ["random", "empty_ranks", "all_to_one", "self_only", "sparse"]
)
class TestRouteAgainstAlltoall:
    """``RoutePlan`` must deliver the rows, and record the event, that the
    hand-split ``alltoall`` (the reference) does for the same slices."""

    def test_send_matches_the_reference(self, P, scenario):
        rng = np.random.default_rng(P * 31 + len(scenario))
        world, twin = SimWorld(P, cori_haswell()), SimWorld(P, cori_haswell())
        dests = _route_case(P, scenario, rng)
        plan = world.comm.route(iter(dests))  # a generator is enough
        assert len(world.log) == 0  # planning is local
        assert np.array_equal(
            plan.counts, [np.bincount(d, minlength=P) for d in dests]
        )
        column_sets = (
            _route_columns(dests, rng)[:1],  # one column
            _route_columns(dests, rng)[1:],  # structured + 2-D in one send
            _route_columns(dests, rng),  # all three in one send
            (_ragged_column(dests, rng),),  # a ragged column alone
            (_route_columns(dests, rng)[0], _ragged_column(dests, rng)),
        )
        if P > 16:  # the P x P reference is slow: every kind in one send
            column_sets = (_route_columns(dests, rng) + (_ragged_column(dests, rng),),)
        for columns in column_sets:
            got = plan.send(*columns)
            cells = [
                [tuple(_rows(col[r], dests[r] == o) for col in columns) for o in range(P)]
                for r in range(P)
            ]
            recv = twin.comm.alltoall(cells)
            assert _event_fields(world) == _event_fields(twin)
            assert len(got) == len(columns)
            for c, per_receiver in enumerate(got):
                assert len(per_receiver) == P
                for o in range(P):
                    _assert_same(
                        per_receiver[o], _joined([recv[o][r][c] for r in range(P)])
                    )
        assert len(world.log) == len(twin.log) == len(column_sets)

    def test_reply_restores_request_order(self, P, scenario):
        rng = np.random.default_rng(P * 17 + len(scenario))
        world, twin = SimWorld(P, cori_haswell()), SimWorld(P, cori_haswell())
        dests = _route_case(P, scenario, rng)
        # duplicates on purpose: few distinct keys per destination
        keys = [d * 3 + rng.integers(0, 3, size=d.size) for d in dests]
        plan = world.comm.route(dests)
        (asked,) = plan.send(keys)
        answers = [a.astype(np.int32) * 7 for a in asked]
        got = plan.reply(answers)
        for key, ans in zip(keys, got):
            assert ans.dtype == np.int32
            assert np.array_equal(ans, key * 7)
        # the reply event: owner o sends rank r the answers to r's requests
        twin.comm.alltoall(
            [
                [(keys[r][dests[r] == o] * 7).astype(np.int32) for r in range(P)]
                for o in range(P)
            ]
        )
        assert _event_fields(world) == _event_fields(twin)

    def test_ragged_reply_restores_request_order(self, P, scenario):
        """Key ``k`` is answered with ``k % 4`` copies of ``k`` (so some
        answers are empty rows, and duplicate keys get equal rows)."""

        def answer(keys):
            lengths = keys % 4
            return np.repeat(keys, lengths).astype(np.uint16), cumsum0(lengths)

        rng = np.random.default_rng(P * 13 + len(scenario))
        world, twin = SimWorld(P, cori_haswell()), SimWorld(P, cori_haswell())
        dests = _route_case(P, scenario, rng)
        keys = [d * 3 + rng.integers(0, 3, size=d.size) for d in dests]
        plan = world.comm.route(dests)
        (asked,) = plan.send(keys)
        got = plan.reply([answer(a) for a in asked])
        for key, ans in zip(keys, got):
            _assert_same(ans, answer(key))
        twin.comm.alltoall(
            [[answer(keys[r][dests[r] == o]) for r in range(P)] for o in range(P)]
        )
        assert _event_fields(world) == _event_fields(twin)


class TestRouteReceivers:
    DESTS = [np.array([0, 1, 1, 3]), np.array([3, 0]), np.empty(0, np.int64),
             np.array([2, 1, 0])]

    def test_receiver_dtype_is_the_concatenation_over_all_senders(self):
        """int32 on even ranks, int64 on odd ranks and one empty float64
        array: every receiver gets ``np.concatenate``'s dtype over all
        senders, whether or not the float rank sends it anything."""
        world = SimWorld(4, cori_haswell())
        plan = world.comm.route(self.DESTS)
        col = [(np.arange(d.size) + 10 * r).astype(np.int32 if r % 2 == 0 else np.int64)
               for r, d in enumerate(self.DESTS)]
        col[2] = np.empty(0, np.float64)
        (got,) = plan.send(col)
        want = np.concatenate(col).dtype
        assert want == np.float64
        for o, arr in enumerate(got):
            assert arr.dtype == want
            expected = np.concatenate([c[d == o] for c, d in zip(col, self.DESTS)])
            assert np.array_equal(arr, expected)
        # the trip back follows the same rule over the answers
        answers = [a.astype(np.int32 if o % 2 else np.int64) for o, a in enumerate(got)]
        answers[1] = answers[1].astype(np.uint8)
        back = plan.reply(answers)
        want = np.concatenate(answers).dtype
        for c, b in zip(col, back):
            assert b.dtype == want and np.array_equal(b, c)

    def test_ragged_receiver_dtype_is_the_concatenation_over_all_senders(self):
        """The same rule for a ragged column's values, although they are
        never concatenated: receivers (and the reply) get float64 because
        rank 2 holds an empty float64 values array."""
        world = SimWorld(4, cori_haswell())
        plan = world.comm.route(self.DESTS)
        col = [(np.arange(2 * d.size).astype(np.int32 if r % 2 == 0 else np.int64),
                2 * np.arange(d.size + 1)) for r, d in enumerate(self.DESTS)]
        col[2] = (np.empty(0, np.float64), np.zeros(1, np.int64))
        (got,) = plan.send(col)
        for o, (values, offsets) in enumerate(got):
            assert values.dtype == np.float64
            want = np.concatenate([v.reshape(-1, 2)[d == o].ravel()
                                   for (v, _), d in zip(col, self.DESTS)])
            assert np.array_equal(values, want)
            assert np.array_equal(offsets, 2 * np.arange(len(want) // 2 + 1))
        answers = [(v.astype(np.uint8), o) for v, o in got]
        answers[3] = (answers[3][0].astype(np.float32), answers[3][1])
        for (values, offsets), (sent, sent_offsets) in zip(plan.reply(answers), col):
            assert values.dtype == np.float32
            assert np.array_equal(values, sent) and np.array_equal(offsets, sent_offsets)

    def test_receivers_get_fresh_arrays(self):
        """Each receiver owns its array: a view would keep a whole-world
        buffer alive for as long as any receiver holds its part."""
        world = SimWorld(4, zero_cost())
        plan = world.comm.route(self.DESTS)
        col = [np.arange(d.size) for d in self.DESTS]
        ragged = [(np.ones(2 * d.size, np.uint8), 2 * np.arange(d.size + 1))
                  for d in self.DESTS]
        got, got_ragged = plan.send(col, ragged)
        back = plan.reply(got)
        back_ragged = plan.reply(got_ragged)
        for pair in got_ragged + back_ragged:
            assert isinstance(pair, tuple) and len(pair) == 2
        for arr in got + back + [a for pair in got_ragged + back_ragged for a in pair]:
            assert arr.base is None and arr.flags.owndata

    @pytest.mark.parametrize("in_run_order", [True, False])
    def test_ragged_reply_in_and_out_of_run_order(self, in_run_order):
        """A fetch addresses its rows in ascending rank order, so its
        answers arrive already in row order; a shuffled request does not.
        Both get each row's answer, in fresh arrays, under the event the
        hand-split ``alltoall`` records."""

        def answer(keys):
            lengths = keys % 4
            return np.repeat(keys, lengths).astype(np.uint16), cumsum0(lengths)

        rng = np.random.default_rng(41)
        P = 5
        dests = [np.sort(rng.integers(0, P, size=n)) for n in (9, 0, 6, 1, 12)]
        dests[3][:] = 3  # a rank that only asks itself
        if not in_run_order:
            dests = [rng.permutation(d) for d in dests]
        keys = [d * 5 + rng.integers(0, 5, size=d.size) for d in dests]
        world, twin = SimWorld(P, cori_haswell()), SimWorld(P, cori_haswell())
        plan = world.comm.route(dests)
        (asked,) = plan.send(keys)
        got = plan.reply([answer(a) for a in asked])
        for key, (values, offsets) in zip(keys, got):
            _assert_same((values, offsets), answer(key))
            for k, row in enumerate(key):
                assert values[offsets[k] : offsets[k + 1]].tolist() == [row] * (row % 4)
            assert values.base is None and values.flags.owndata
            assert offsets.base is None and offsets.flags.owndata
        twin.comm.alltoall(
            [[answer(keys[r][dests[r] == o]) for r in range(P)] for o in range(P)]
        )
        assert _event_fields(world) == _event_fields(twin)

    def test_ragged_values_are_never_copied_whole(self):
        """A ragged send or reply holds at most a few receivers' shares at
        once on top of its result, never a copy of every rank's values:
        64 ranks, each sending 4 KB to every rank (16 MB in all)."""
        import tracemalloc

        P, row = 64, 1024
        world = SimWorld(P, zero_cost())
        dests = [np.repeat(np.arange(P), 4) for _ in range(P)]
        plan = world.comm.route(dests)
        ragged = [(np.full(d.size * row, r, np.uint8), row * np.arange(d.size + 1))
                  for r, d in enumerate(dests)]
        whole = sum(v.nbytes for v, _ in ragged)
        tracemalloc.start()
        try:
            for move in (lambda: plan.send(ragged)[0], lambda: plan.reply(ragged)):
                tracemalloc.reset_peak()
                out = move()
                held, peak = tracemalloc.get_traced_memory()
                assert peak - held < whole / 4
                del out
        finally:
            tracemalloc.stop()

    def test_one_plan_sent_twice_records_two_identical_events(self):
        world = SimWorld(4, cori_haswell())
        plan = world.comm.route(self.DESTS)
        col = [np.arange(d.size) for d in self.DESTS]
        ragged = [(np.ones(2 * d.size, np.uint8), 2 * np.arange(d.size + 1))
                  for d in self.DESTS]
        first = plan.send(col, ragged)
        second = plan.send(col, ragged)
        assert len(world.log) == 2
        assert world.log.events[0] == world.log.events[1]
        for a, b in zip(first, second):
            for x, y in zip(a, b):
                _assert_same(x, y)


class TestRouteValidation:
    def _plan(self, world):
        return world.comm.route([np.array([0, 1, 1]), np.array([3]),
                                 np.empty(0, np.int64), np.array([2, 2])])

    def test_destination_outside_the_communicator(self):
        world = SimWorld(4, cori_haswell())
        for bad in (-1, 4):
            with pytest.raises(CommunicatorError, match="outside"):
                world.comm.route([np.array([0, bad])] + [np.empty(0, np.int64)] * 3)
        assert len(world.log) == 0

    def test_non_integer_destinations(self):
        """Float destinations used to be truncated to ranks silently."""
        world = SimWorld(2, cori_haswell())
        with pytest.raises(CommunicatorError, match="rank 0 has float64"):
            world.comm.route([np.array([0.0, 1.7]), np.array([0.9])])
        with pytest.raises(CommunicatorError, match="rank 1 has bool"):
            world.comm.route([np.array([0, 1]), np.array([True])])
        assert len(world.log) == 0
        # an empty array of any dtype is no destination at all
        plan = world.comm.route([np.array([1, 1], np.uint8), np.empty(0)])
        assert plan.counts.tolist() == [[0, 2], [0, 0]]

    def test_column_mixing_ragged_and_plain_entries(self):
        world = SimWorld(4, cori_haswell())
        plan = self._plan(world)
        ragged = [(np.zeros(n, np.uint8), np.arange(n + 1)) for n in (3, 1, 0, 2)]
        plain = [np.zeros(n) for n in (3, 1, 0, 2)]
        with pytest.raises(CommunicatorError, match="rank 1 .*not a \\(values, offsets\\) pair"):
            plan.send(ragged[:1] + plain[1:])
        with pytest.raises(CommunicatorError, match="rank 2 .*not an array"):
            plan.send(plain[:2] + ragged[2:])
        # a length-2 array is not unpacked as (values, offsets)
        with pytest.raises(CommunicatorError, match="rank 3"):
            plan.send(ragged[:3] + [np.zeros(2)])
        with pytest.raises(CommunicatorError, match="rank 0"):
            plan.send([(np.zeros(3), np.arange(4), None)] + ragged[1:])
        with pytest.raises(CommunicatorError, match="rank 3"):
            plan.reply([np.zeros(1), np.zeros(2), np.zeros(2), (np.zeros(1), np.arange(2))])
        assert len(world.log) == 0

    def test_wrong_number_of_arrays(self):
        world = SimWorld(4, cori_haswell())
        with pytest.raises(CommunicatorError):
            world.comm.route([np.empty(0, np.int64)] * 3)
        with pytest.raises(CommunicatorError):
            world.comm.route([np.empty(0, np.int64)] * 5)
        plan = self._plan(world)
        with pytest.raises(CommunicatorError):
            plan.send([np.zeros(3), np.zeros(1), np.zeros(0)])
        with pytest.raises(CommunicatorError):
            plan.reply([np.zeros(1)] * 3)
        assert len(world.log) == 0

    def test_wrong_row_count(self):
        world = SimWorld(4, cori_haswell())
        plan = self._plan(world)
        good = [np.zeros(3), np.zeros(1), np.zeros(0), np.zeros(2)]
        with pytest.raises(CommunicatorError, match="rows"):
            plan.send(good, [np.zeros(3), np.zeros(2), np.zeros(0), np.zeros(2)])
        # receivers hold 1, 2, 2, 1 rows: an answer array must match
        with pytest.raises(CommunicatorError, match="rows"):
            plan.reply([np.zeros(1), np.zeros(2), np.zeros(2), np.zeros(2)])
        assert len(world.log) == 0
        plan.send(good)
        plan.reply([np.zeros(1), np.zeros(2), np.zeros(2), np.zeros(1)])
        assert len(world.log) == 2

    def test_wrong_ragged_offsets(self):
        """A ragged entry needs one offset more than the rank has rows,
        non-decreasing from 0 to the number of values."""
        world = SimWorld(4, cori_haswell())
        plan = self._plan(world)
        values = np.zeros(6, np.uint8)
        flat = lambda n: (values[:0], np.zeros(n + 1, np.int64))  # noqa: E731
        for bad in ([0, 2, 6], [0, 1, 2, 6, 6], [1, 2, 4, 6], [0, 2, 4, 5], [0, 4, 2, 6]):
            with pytest.raises(CommunicatorError, match="offsets"):
                plan.send([(values, np.array(bad)), flat(1), flat(0), flat(2)])
        with pytest.raises(CommunicatorError, match="offsets"):
            plan.reply([flat(1), flat(2), (values, np.array([0, 6])), flat(1)])
        assert len(world.log) == 0
        plan.send([(values, np.array([0, 2, 4, 6])), flat(1), flat(0), flat(2)])
        assert len(world.log) == 1

    def test_not_inside_a_rank_step(self):
        world = SimWorld(4, zero_cost())
        plan = self._plan(world)

        def step(ctx):
            plan.send([np.zeros(3), np.zeros(1), np.zeros(0), np.zeros(2)])

        with pytest.raises(CommunicatorError):
            world.map_ranks(step)
