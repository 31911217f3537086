"""Unit tests for the CSC and DCSC local formats."""

import numpy as np
import pytest

from repro.errors import SparseFormatError
from repro.sparse import Dcsc, LocalCoo, LocalCsc


def sample_coo():
    # 5x5, pattern-symmetric path 0-1-2-3 plus isolated 4
    rows = np.array([0, 1, 1, 2, 2, 3])
    cols = np.array([1, 0, 2, 1, 3, 2])
    vals = np.arange(6, dtype=np.int64)
    return LocalCoo((5, 5), rows, cols, vals)


class TestCsc:
    def test_from_coo_roundtrip(self):
        coo = sample_coo()
        csc = LocalCsc.from_coo(coo)
        back = csc.to_coo()
        a = sorted(zip(coo.rows, coo.cols, coo.vals))
        b = sorted(zip(back.rows, back.cols, back.vals))
        assert a == b

    def test_degrees_match_column_counts(self):
        csc = LocalCsc.from_coo(sample_coo())
        assert list(csc.degrees()) == [1, 2, 2, 1, 0]

    def test_degree_is_jc_difference(self):
        """The paper's degree test: JC[i+1] - JC[i]."""
        csc = LocalCsc.from_coo(sample_coo())
        for i in range(5):
            assert csc.degree(i) == csc.jc[i + 1] - csc.jc[i]

    def test_slice_indices(self):
        csc = LocalCsc.from_coo(sample_coo())
        assert sorted(csc.slice_indices(1)) == [0, 2]
        assert list(csc.slice_indices(4)) == []

    def test_slice_vals_align_with_indices(self):
        csc = LocalCsc.from_coo(sample_coo())
        idx = csc.slice_indices(2)
        vals = csc.slice_vals(2)
        assert len(idx) == len(vals) == 2

    def test_validation(self):
        with pytest.raises(SparseFormatError):
            LocalCsc((2, 2), np.array([0, 1]), np.array([0]), np.array([1]))
        with pytest.raises(SparseFormatError):
            LocalCsc((2, 2), np.array([1, 0, 1]), np.array([0]), np.array([1]))


class TestDcsc:
    def test_from_coo_skips_empty_columns(self):
        dcsc = Dcsc.from_coo(sample_coo())
        assert list(dcsc.jc) == [0, 1, 2, 3]  # column 4 empty
        assert dcsc.ncols_nonempty == 4
        assert dcsc.nnz == 6

    def test_roundtrip(self):
        coo = sample_coo()
        back = Dcsc.from_coo(coo).to_coo()
        a = sorted(zip(coo.rows, coo.cols, coo.vals))
        b = sorted(zip(back.rows, back.cols, back.vals))
        assert a == b

    def test_to_csc_shares_ir_and_val(self):
        """§4.4: only column pointers uncompress; ir and val stay intact."""
        dcsc = Dcsc.from_coo(sample_coo())
        csc = dcsc.to_csc()
        assert csc.ir is dcsc.ir
        assert csc.val is dcsc.val

    def test_to_csc_equivalent(self):
        coo = sample_coo()
        via_dcsc = Dcsc.from_coo(coo).to_csc()
        direct = LocalCsc.from_coo(coo)
        assert np.array_equal(via_dcsc.jc, direct.jc)
        assert np.array_equal(via_dcsc.ir, direct.ir)

    def test_hypersparse_memory_advantage(self):
        """DCSC footprint must not scale with the column count."""
        n = 10_000
        coo = LocalCoo(
            (n, n), np.array([5]), np.array([7]), np.array([1.0])
        )
        dcsc = Dcsc.from_coo(coo)
        csc_pointer_bytes = (n + 1) * 8
        assert dcsc.memory_bytes() < csc_pointer_bytes / 100

    def test_empty_matrix(self):
        dcsc = Dcsc.from_coo(LocalCoo.empty((4, 4), np.dtype(np.int64)))
        assert dcsc.nnz == 0
        assert dcsc.to_csc().degrees().sum() == 0

    def test_validation(self):
        with pytest.raises(SparseFormatError):
            Dcsc(
                (2, 2),
                np.array([0, 0]),  # not strictly increasing
                np.array([0, 1, 2]),
                np.array([0, 1]),
                np.array([1, 2]),
            )
