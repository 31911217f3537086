"""Unit tests for the distributed vector."""

import numpy as np
import pytest

from repro.errors import DistributionError
from repro.mpi import ProcGrid, SimWorld, cori_haswell, zero_cost
from repro.sparse import DistVector


class TestLayout:
    def test_from_global_roundtrip(self, grid):
        arr = np.arange(29)
        v = DistVector.from_global(grid, arr)
        assert np.array_equal(v.to_global(), arr)

    def test_blocks_match_grid_layout(self, grid):
        arr = np.arange(31)
        v = DistVector.from_global(grid, arr)
        for rank, blk in enumerate(v.blocks):
            lo, hi = grid.vec_block(31, rank)
            assert np.array_equal(blk, arr[lo:hi])

    def test_constructors(self, grid4):
        z = DistVector.zeros(grid4, 10)
        assert np.all(z.to_global() == 0)
        f = DistVector.full(grid4, 10, 7, np.int32)
        assert np.all(f.to_global() == 7)
        a = DistVector.arange(grid4, 10)
        assert np.array_equal(a.to_global(), np.arange(10))

    def test_bad_block_sizes_rejected(self, grid4):
        with pytest.raises(DistributionError):
            DistVector(grid4, 10, [np.zeros(10)] * 4)

    def test_copy_independent(self, grid4):
        v = DistVector.arange(grid4, 8)
        c = v.copy()
        c.blocks[0][:] = -1
        assert np.array_equal(v.to_global(), np.arange(8))


class TestMapReduceSelect:
    def test_map_receives_global_indices(self, grid4):
        v = DistVector.zeros(grid4, 12)
        out = v.map(lambda blk, idx: idx * 2)
        assert np.array_equal(out.to_global(), np.arange(12) * 2)

    def test_reduce(self, grid4):
        v = DistVector.from_global(grid4, np.arange(10))
        total = v.reduce(lambda b: int(b.sum()), lambda a, b: a + b)
        assert total == 45

    def test_reduce_skips_empty_ranks(self):
        """At P = 16 a 5-element vector leaves 11 ranks empty: they take
        part in the allreduce but must not enter the combine."""
        v = DistVector.from_global(ProcGrid(SimWorld(16)), np.arange(1, 6))
        assert v.reduce(lambda b: int(b.sum()), lambda a, b: a + b) == 15
        assert v.reduce(lambda b: int(b.max()), max) == 5

    def test_select_global_indices(self, grid4):
        arr = np.array([0, 5, 1, 7, 2, 9, 3, 8, 4, 6])
        v = DistVector.from_global(grid4, arr)
        selected = v.select_global_indices(lambda b: b >= 5)
        got = np.sort(np.concatenate(selected))
        assert np.array_equal(got, np.sort(np.flatnonzero(arr >= 5)))


class TestGather:
    def test_gather_returns_request_order(self, grid):
        n = 37
        arr = np.arange(n) * 10
        v = DistVector.from_global(grid, arr)
        rng = np.random.default_rng(0)
        requests = [
            rng.integers(0, n, size=rng.integers(0, 20))
            for _ in range(grid.nprocs)
        ]
        answers = v.gather(requests)
        for req, ans in zip(requests, answers):
            assert np.array_equal(ans, arr[req])

    def test_gather_empty_requests(self, grid4):
        v = DistVector.arange(grid4, 10)
        answers = v.gather([np.empty(0, dtype=np.int64)] * 4)
        assert all(a.size == 0 for a in answers)

    def test_gather_out_of_range(self, grid4):
        v = DistVector.arange(grid4, 10)
        with pytest.raises(DistributionError):
            v.gather([np.array([10])] + [np.empty(0, dtype=np.int64)] * 3)

    def test_gather_charges_communication(self):
        w = SimWorld(4, cori_haswell())
        g = ProcGrid(w)
        v = DistVector.arange(g, 100)
        v.gather([np.arange(50)] * 4)
        assert w.log.total_bytes(op="alltoallv") > 0


class TestScatterUpdate:
    def test_overwrite(self, grid4):
        v = DistVector.zeros(grid4, 10)
        v.scatter_update(
            [np.array([1, 9]), np.array([3]), np.empty(0, np.int64), np.empty(0, np.int64)],
            [np.array([11, 99]), np.array([33]), np.empty(0, np.int64), np.empty(0, np.int64)],
        )
        out = v.to_global()
        assert out[1] == 11 and out[9] == 99 and out[3] == 33

    def test_min_combine(self, grid4):
        v = DistVector.full(grid4, 6, 100, np.int64)
        idx = [np.array([2]), np.array([2]), np.empty(0, np.int64), np.empty(0, np.int64)]
        val = [np.array([50]), np.array([30]), np.empty(0, np.int64), np.empty(0, np.int64)]
        v.scatter_update(idx, val, combine="min")
        assert v.to_global()[2] == 30

    def test_add_combine(self, grid4):
        v = DistVector.zeros(grid4, 6)
        idx = [np.array([2, 2]), np.empty(0, np.int64), np.empty(0, np.int64), np.array([2])]
        val = [np.array([1, 2]), np.empty(0, np.int64), np.empty(0, np.int64), np.array([4])]
        v.scatter_update(idx, val, combine="add")
        assert v.to_global()[2] == 7

    def test_unknown_combine(self, grid4):
        v = DistVector.zeros(grid4, 6)
        with pytest.raises(ValueError):
            v.scatter_update(
                [np.array([0])] + [np.empty(0, np.int64)] * 3,
                [np.array([1])] + [np.empty(0, np.int64)] * 3,
                combine="xor",
            )

    def test_length_mismatch(self, grid4):
        v = DistVector.zeros(grid4, 6)
        with pytest.raises(DistributionError):
            v.scatter_update(
                [np.array([0, 1])] + [np.empty(0, np.int64)] * 3,
                [np.array([1])] + [np.empty(0, np.int64)] * 3,
            )


class TestScatterUpdateValidatesUpFront:
    """A bad ``combine`` or index must raise before any comm event is
    recorded, any compute is charged or any block is written."""

    def _vector(self):
        w = SimWorld(4, cori_haswell())
        v = DistVector.from_global(ProcGrid(w), np.arange(10) * 10)
        return w, v, v.to_global().copy()

    def _untouched(self, w, v, before):
        assert len(w.log) == 0
        assert w.clock.total_seconds() == 0.0
        assert np.array_equal(v.to_global(), before)

    def test_unknown_combine_with_updates(self):
        w, v, before = self._vector()
        # the mode used to be looked at only when the first owner applied
        # its first update, two charged all-to-alls later
        idx = [np.array([9]), np.array([0]), np.array([5]), np.empty(0, np.int64)]
        with pytest.raises(ValueError, match="xor"):
            v.scatter_update(idx, [i + 1 for i in idx], combine="xor")
        self._untouched(w, v, before)

    def test_unknown_combine_with_nothing_to_send(self):
        w, v, before = self._vector()
        nothing = [np.empty(0, np.int64)] * 4
        with pytest.raises(ValueError, match="xor"):
            v.scatter_update(nothing, nothing, combine="xor")
        self._untouched(w, v, before)

    @pytest.mark.parametrize("bad", [10, -1])
    def test_index_out_of_range_like_gather(self, bad):
        w, v, before = self._vector()
        idx = [np.array([1]), np.array([2, bad]), np.empty(0, np.int64), np.array([3])]
        with pytest.raises(DistributionError, match="out of range"):
            v.scatter_update(idx, [i * 0 for i in idx], combine="min")
        with pytest.raises(DistributionError, match="out of range"):
            v.gather(idx)
        self._untouched(w, v, before)

    def test_overwrite_last_writer_wins_in_rank_order(self, grid4):
        v = DistVector.zeros(grid4, 10)
        idx = [np.array([7, 7]), np.array([7]), np.empty(0, np.int64), np.array([7])]
        val = [np.array([1, 2]), np.array([3]), np.empty(0, np.int64), np.array([4])]
        v.scatter_update(idx, val)
        assert v.to_global()[7] == 4
