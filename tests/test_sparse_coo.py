"""Unit tests for the local COO format."""

import pickle

import numpy as np
import pytest

from repro.errors import SparseFormatError
from repro.sparse import LocalCoo, segment_starts
from repro.sparse.types import OVERLAP_DTYPE


def small():
    return LocalCoo(
        (4, 5),
        np.array([0, 1, 1, 3]),
        np.array([2, 0, 4, 3]),
        np.array([1.0, 2.0, 3.0, 4.0]),
    )


class TestConstruction:
    def test_basic_properties(self):
        m = small()
        assert m.nnz == 4
        assert m.shape == (4, 5)
        assert m.dtype == np.float64

    def test_out_of_range_rejected(self):
        with pytest.raises(SparseFormatError):
            LocalCoo((2, 2), np.array([2]), np.array([0]), np.array([1.0]))
        with pytest.raises(SparseFormatError):
            LocalCoo((2, 2), np.array([0]), np.array([-1]), np.array([1.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(SparseFormatError):
            LocalCoo((2, 2), np.array([0]), np.array([0, 1]), np.array([1.0]))

    def test_zero_d_and_2d_inputs_rejected(self):
        # a 0-d payload used to escape as IndexError, 2-D coordinates passed
        with pytest.raises(SparseFormatError):
            LocalCoo((2, 2), [0], [0], np.float64(5.0))
        with pytest.raises(SparseFormatError):
            LocalCoo((2, 2), 0, 0, np.array([5.0]))
        with pytest.raises(SparseFormatError):
            LocalCoo((2, 2), [[0, 1]], [[0, 1]], np.array([5.0]))

    def test_empty(self):
        m = LocalCoo.empty((3, 3), np.dtype(np.int64))
        assert m.nnz == 0
        assert m.dtype == np.int64

    def test_from_dense_roundtrip(self):
        dense = np.array([[0, 1.5], [2.5, 0]])
        m = LocalCoo.from_dense(dense)
        assert np.allclose(m.to_dense(), dense)

    def test_structured_payload_supported(self):
        vals = np.zeros(2, dtype=OVERLAP_DTYPE)
        m = LocalCoo((3, 3), np.array([0, 1]), np.array([1, 2]), vals)
        assert m.dtype == OVERLAP_DTYPE
        with pytest.raises(SparseFormatError):
            m.to_dense()


class TestTransforms:
    def test_transpose_swaps(self):
        m = small().transpose()
        assert m.shape == (5, 4)
        assert np.array_equal(m.rows, small().cols)

    def test_sorted_by_row_then_col(self):
        m = small().sorted_by("row")
        keys = m.rows * m.shape[1] + m.cols
        assert np.all(np.diff(keys) >= 0)

    def test_sorted_by_col(self):
        m = small().sorted_by("col")
        keys = m.cols * m.shape[0] + m.rows
        assert np.all(np.diff(keys) >= 0)

    def test_sorted_invalid_order(self):
        with pytest.raises(ValueError):
            small().sorted_by("diag")

    def test_dedupe_sums(self):
        m = LocalCoo(
            (2, 2),
            np.array([0, 0, 1]),
            np.array([1, 1, 0]),
            np.array([1.0, 2.0, 5.0]),
        )
        d = m.deduped(lambda v, s: np.add.reduceat(v, s))
        assert d.nnz == 2
        dense = d.to_dense()
        assert dense[0, 1] == 3.0 and dense[1, 0] == 5.0

    def test_dedupe_noop_when_unique(self):
        m = small()
        d = m.deduped(lambda v, s: np.add.reduceat(v, s))
        assert d.nnz == m.nnz

    def test_select_mask(self):
        m = small().select(np.array([True, False, True, False]))
        assert m.nnz == 2
        assert np.array_equal(m.rows, [0, 1])

    def test_select_bad_mask(self):
        with pytest.raises(SparseFormatError):
            small().select(np.array([True]))

    def test_map_vals_receives_coords(self):
        m = small()
        out = m.map_vals(lambda v, r, c: v + r * 10 + c)
        assert np.allclose(out.vals, m.vals + m.rows * 10 + m.cols)

    def test_map_vals_must_preserve_nnz(self):
        with pytest.raises(SparseFormatError):
            small().map_vals(lambda v, r, c: v[:1])

    def test_counts(self):
        m = small()
        assert list(m.row_counts()) == [1, 2, 0, 1]
        assert list(m.col_counts()) == [1, 0, 1, 1, 1]

    def test_copy_is_independent(self):
        m = small()
        c = m.copy()
        c.vals[0] = 99.0
        assert m.vals[0] == 1.0


class TestOrder:
    """``order`` is the remembered sort: kept by what keeps it true."""

    def test_unknown_until_sorted(self):
        assert small().order is None
        assert small().sorted_by("col").order == "col"
        assert small().deduped(lambda v, s: np.add.reduceat(v, s)).order == "row"

    def test_sorted_by_returns_self_when_already_so(self):
        m = small().sorted_by("col")
        assert m.sorted_by("col") is m
        again = m.sorted_by("row")
        assert again is not m and again.order == "row"

    def test_survives_select_and_copy(self):
        m = small().sorted_by("col")
        kept = m.select(np.array([True, False, True, True]))
        assert kept.order == "col" and m.copy().order == "col"
        assert np.array_equal(kept.cols, np.sort(kept.cols))

    def test_flips_under_transpose(self):
        m = small().sorted_by("col")
        t = m.transpose()
        assert t.order == "row"
        resorted = LocalCoo(t.shape, t.rows, t.cols, t.vals).sorted_by("row")
        assert np.array_equal(resorted.rows, t.rows)
        assert np.array_equal(resorted.cols, t.cols)
        assert small().transpose().order is None

    def test_dropped_by_anything_that_reorders(self):
        m = small().sorted_by("row")
        perm = np.array([3, 0, 2, 1])
        assert LocalCoo(m.shape, m.rows[perm], m.cols[perm], m.vals[perm]).order is None
        assert m.map_vals(lambda v, r, c: v).order is None
        assert m.sorted_by("col").order == "col"

    def test_round_trips_pickling(self):
        big = LocalCoo(
            (70_000, 3), np.arange(70_000), np.zeros(70_000, dtype=np.int64),
            np.ones(70_000),
        ).sorted_by("row")
        for m in (small().sorted_by("col"), big):
            back = pickle.loads(pickle.dumps(m))
            assert back.order == m.order and back.shape == m.shape
            assert np.array_equal(back.rows, m.rows)


class TestSegmentStarts:
    def test_basic(self):
        keys = np.array([1, 1, 2, 5, 5, 5])
        assert list(segment_starts(keys)) == [0, 2, 3]

    def test_empty(self):
        assert segment_starts(np.empty(0, dtype=np.int64)).size == 0

    def test_all_unique(self):
        keys = np.array([1, 2, 3])
        assert list(segment_starts(keys)) == [0, 1, 2]
