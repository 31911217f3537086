"""Unit tests for the sqrt(P) x sqrt(P) process grid."""

import numpy as np
import pytest

from repro.errors import DistributionError, GridError
from repro.mpi import ProcGrid, SimWorld, block_range, zero_cost


class TestConstruction:
    @pytest.mark.parametrize("p", [1, 4, 9, 16, 25])
    def test_square_counts_accepted(self, p):
        g = ProcGrid(SimWorld(p, zero_cost()))
        assert g.q * g.q == p

    @pytest.mark.parametrize("p", [2, 3, 5, 8, 18, 32])
    def test_non_square_counts_rejected(self, p):
        with pytest.raises(GridError):
            ProcGrid(SimWorld(p, zero_cost()))


class TestCoordinates:
    def test_rank_coords_roundtrip(self):
        g = ProcGrid(SimWorld(9, zero_cost()))
        for r in range(9):
            i, j = g.coords_of(r)
            assert g.rank_of(i, j) == r

    def test_transpose_is_involution(self):
        g = ProcGrid(SimWorld(16, zero_cost()))
        for r in range(16):
            assert g.transpose_rank(g.transpose_rank(r)) == r

    def test_transpose_partners_diagonal_fixed(self):
        g = ProcGrid(SimWorld(9, zero_cost()))
        partners = g.transpose_partners()
        for i in range(3):
            assert partners[g.rank_of(i, i)] == g.rank_of(i, i)

    def test_out_of_range_coords(self):
        g = ProcGrid(SimWorld(4, zero_cost()))
        with pytest.raises(GridError):
            g.rank_of(2, 0)
        with pytest.raises(GridError):
            g.coords_of(4)


class TestCommunicators:
    def test_row_comms_cover_grid_rows(self):
        g = ProcGrid(SimWorld(9, zero_cost()))
        for i, comm in enumerate(g.row_comms):
            assert comm.ranks == [g.rank_of(i, j) for j in range(3)]

    def test_col_comms_cover_grid_cols(self):
        g = ProcGrid(SimWorld(9, zero_cost()))
        for j, comm in enumerate(g.col_comms):
            assert comm.ranks == [g.rank_of(i, j) for i in range(3)]


class TestBlockLayouts:
    def test_vector_blocks_concatenate_to_row_blocks(self):
        """The layout invariant the induced-subgraph algorithm exploits:
        the P-way vector blocks of grid row i's ranks tile exactly grid row
        i's matrix row block."""
        g = ProcGrid(SimWorld(16, zero_cost()))
        n = 103
        for i in range(g.q):
            rlo, rhi = g.row_block(n, i)
            vlo = g.vec_block(n, g.rank_of(i, 0))[0]
            vhi = g.vec_block(n, g.rank_of(i, g.q - 1))[1]
            assert (vlo, vhi) == (rlo, rhi)

    def test_owner_of_row_matches_blocks(self):
        g = ProcGrid(SimWorld(9, zero_cost()))
        n = 50
        rows = np.arange(n)
        owners = g.owner_of_entry((n, n), rows, np.zeros(n, dtype=np.int64))
        for i in range(g.q):
            lo, hi = g.row_block(n, i)
            assert np.all(owners[lo:hi] == g.rank_of(i, 0))

    def test_owner_of_vec_matches_blocks(self):
        g = ProcGrid(SimWorld(4, zero_cost()))
        n = 11
        idx = np.arange(n)
        owners = np.asarray(g.owner_of_vec(n, idx))
        for r in range(4):
            lo, hi = g.vec_block(n, r)
            assert np.all(owners[lo:hi] == r)

    def test_vec_sizes_sum_to_n(self):
        g = ProcGrid(SimWorld(9, zero_cost()))
        bounds = g.vec_bounds(100)
        assert bounds[0] == 0 and bounds[-1] == 100
        assert np.diff(bounds).sum() == 100

    def test_vec_bounds_cached_per_n_and_read_only(self):
        """One array per ``n`` is shared by every caller, so no caller may
        be able to write to it."""
        g = ProcGrid(SimWorld(9, zero_cost()))
        bounds = g.vec_bounds(100)
        assert g.vec_bounds(100) is bounds
        assert g.vec_bounds(101) is not bounds
        with pytest.raises(ValueError):
            bounds[1] = 0
        with pytest.raises(ValueError):
            bounds += 1
        assert g.vec_block(100, 8) == (int(bounds[8]), 100)


def _nested_vec_block(g, n, rank):
    """The layout's definition: rank P(i, j) owns the j-th q-way sub-block
    of grid row i's row block."""
    i, j = divmod(rank, g.q)
    rlo, rhi = block_range(n, g.q, i)
    slo, shi = block_range(rhi - rlo, g.q, j)
    return rlo + slo, rlo + shi


@pytest.mark.parametrize("p", [1, 4, 9, 16])
class TestLayoutAgainstDefinition:
    """``vec_bounds`` / ``owner_of_vec`` / ``block_bounds`` /
    ``owner_of_entry`` against the nested ``block_range`` definition, for
    every n in 0..3P+1 (n < P repeats boundaries: the ``side="right"``
    case)."""

    def test_vector_layout(self, p):
        g = ProcGrid(SimWorld(p, zero_cost()))
        for n in range(3 * p + 2):
            want = [_nested_vec_block(g, n, r) for r in range(p)]
            bounds = g.vec_bounds(n)
            assert bounds.shape == (p + 1,)
            assert list(zip(bounds[:-1], bounds[1:])) == want
            assert [g.vec_block(n, r) for r in range(p)] == want
            owners = g.owner_of_vec(n, np.arange(n))
            for r, (lo, hi) in enumerate(want):
                assert np.all(owners[lo:hi] == r)
                for i in range(lo, hi):  # scalar arguments alike
                    assert g.owner_of_vec(n, i) == r

    def test_matrix_layout(self, p):
        g = ProcGrid(SimWorld(p, zero_cost()))
        for n in range(3 * p + 2):
            shape = (n, 2 * n + 1)
            bounds = g.block_bounds(shape)
            assert bounds == [
                block_range(shape[0], g.q, i) + block_range(shape[1], g.q, j)
                for i in range(g.q)
                for j in range(g.q)
            ]
            rows, cols = np.divmod(np.arange(shape[0] * shape[1]), shape[1])
            owners = g.owner_of_entry(shape, rows, cols)
            for rank, (rlo, rhi, clo, chi) in enumerate(bounds):
                mine = (rows >= rlo) & (rows < rhi) & (cols >= clo) & (cols < chi)
                assert np.all(owners[mine] == rank)
                if mine.any():  # scalar arguments alike
                    assert g.owner_of_entry(shape, rlo, chi - 1) == rank


class TestOwnerOfEntryRange:
    @pytest.mark.parametrize(
        "row, col", [(10, 3), (-1, 0), (0, 17), (5, -2), (10, 17)]
    )
    def test_outside_the_matrix_is_a_distribution_error(self, row, col):
        g = ProcGrid(SimWorld(4, zero_cost()))
        rows, cols = np.array([0, 5, row]), np.array([0, 5, col])
        with pytest.raises(DistributionError) as err:
            g.owner_of_entry((10, 10), rows, cols)
        # names the global shape and the first offending entry
        assert "(10, 10)" in str(err.value)
        assert f"({row}, {col})" in str(err.value)
        with pytest.raises(DistributionError):
            g.owner_of_entry((10, 10), row, col)
