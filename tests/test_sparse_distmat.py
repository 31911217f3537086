"""Unit tests for the 2D block-distributed sparse matrix."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import DistributionError
from repro.mpi import MemoryBudget, ProcGrid, SimWorld, cori_haswell, zero_cost
from repro.sparse import DistSparseMatrix, LocalCoo, SpgemmPlan, arithmetic_semiring
from repro.sparse import distmat
from repro.sparse import spgemm as spgemm_mod


def random_dist(grid, n, m, density=0.2, seed=0):
    rng = np.random.default_rng(seed)
    M = sp.random(n, m, density=density, random_state=rng, format="coo")
    return M, DistSparseMatrix.from_global_coo(grid, (n, m), M.row, M.col, M.data)


def dense_of(dist):
    r, c, v = dist.to_global_coo()
    out = np.zeros(dist.shape)
    out[r, c] = v
    return out


class TestDistribution:
    def test_roundtrip_any_grid(self, grid):
        M, dist = random_dist(grid, 23, 17, seed=3)
        assert np.allclose(dense_of(dist), M.toarray())
        assert dist.nnz() == M.nnz

    def test_blocks_cover_without_overlap(self, grid):
        _, dist = random_dist(grid, 23, 17, seed=4)
        total = sum(b.nnz for b in dist.blocks)
        assert total == dist.nnz()

    def test_block_shape_validation(self):
        w = SimWorld(4, zero_cost())
        g = ProcGrid(w)
        _, dist = random_dist(g, 10, 10)
        with pytest.raises(DistributionError):
            DistSparseMatrix(g, (10, 10), dist.blocks[:2])

    def test_from_rank_triples_routes_to_owners(self, grid):
        n = 11
        # every rank contributes the same diagonal; keep-first dedupe
        per_rank = [
            (np.arange(n), np.arange(n), np.full(n, float(r + 1)))
            for r in range(grid.nprocs)
        ]
        dist = DistSparseMatrix.from_rank_triples(
            grid, (n, n), per_rank, add_reduce=lambda v, s: v[s]
        )
        assert dist.nnz() == n
        d = dense_of(dist)
        assert np.allclose(np.diag(d), 1.0)


class TestCoordinatesOutsideTheMatrix:
    """Both constructors used to drop, or mis-report, entries that no rank
    owns; now one check in ``ProcGrid.owner_of_entry`` rejects them before
    anything is routed or charged."""

    @pytest.mark.parametrize(
        "row, col", [(10, 3), (5, 17), (-1, 0), (4, -3)]
    )
    def test_rejected_by_both_constructors(self, row, col):
        w = SimWorld(4, cori_haswell())
        g = ProcGrid(w)
        rows, cols = np.array([0, 5, row]), np.array([0, 5, col])
        vals = np.ones(3)
        with pytest.raises(DistributionError, match=r"\(10, 10\)") as err:
            DistSparseMatrix.from_global_coo(g, (10, 10), rows, cols, vals)
        assert f"({row}, {col})" in str(err.value)
        nothing = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
        # the bad triple sits on the last rank: the others are fine
        per_rank = [nothing, nothing, nothing, (rows, cols, vals)]
        with pytest.raises(DistributionError, match=r"\(10, 10\)") as err:
            DistSparseMatrix.from_rank_triples(g, (10, 10), per_rank)
        assert f"({row}, {col})" in str(err.value)
        assert len(w.log) == 0
        assert w.clock.total_seconds() == 0.0

    def test_in_range_entries_all_kept(self, grid4):
        rows, cols = np.array([0, 5, 9]), np.array([0, 5, 9])
        a = DistSparseMatrix.from_global_coo(grid4, (10, 10), rows, cols, np.ones(3))
        b = DistSparseMatrix.from_rank_triples(
            grid4, (10, 10), [(rows, cols, np.ones(3))] * 4,
            add_reduce=lambda v, s: v[s],
        )
        assert a.nnz() == b.nnz() == 3


class TestLocalOps:
    def test_prune_removes_matching(self, grid4):
        M, dist = random_dist(grid4, 12, 12, seed=6)
        out = dist.prune(lambda v, r, c: r == c)
        rr, cc, _ = out.to_global_coo()
        assert np.all(rr != cc)

    def test_lookup_join_finds_aligned_entries(self, grid4):
        _, dist = random_dist(grid4, 10, 10, seed=7)
        joins = dist.lookup_join(dist)
        for (found, vals), blk in zip(joins, dist.blocks):
            assert found.all()
            assert np.allclose(vals, blk.vals)

    def test_lookup_join_misaligned_shapes_rejected(self, grid4):
        _, a = random_dist(grid4, 10, 10)
        _, b = random_dist(grid4, 11, 11)
        with pytest.raises(DistributionError):
            a.lookup_join(b)


class TestTranspose:
    def test_transpose_matches_scipy(self, grid):
        M, dist = random_dist(grid, 14, 9, seed=8)
        assert np.allclose(dense_of(dist.transpose()), M.toarray().T)

    def test_double_transpose_identity(self, grid4):
        M, dist = random_dist(grid4, 13, 13, seed=9)
        assert np.allclose(dense_of(dist.transpose().transpose()), M.toarray())

    def test_transpose_charges_ptp(self):
        w = SimWorld(4, cori_haswell())
        g = ProcGrid(w)
        _, dist = random_dist(g, 16, 16, seed=10)
        before = len(w.log)
        dist.transpose()
        ops = [e.op for e in w.log.events[before:]]
        assert "ptp" in ops


class TestSpgemm:
    def test_matches_scipy_all_grids(self, grid):
        rng = np.random.default_rng(11)
        A = sp.random(19, 23, density=0.15, random_state=rng, format="coo")
        B = sp.random(23, 17, density=0.15, random_state=rng, format="coo")
        dA = DistSparseMatrix.from_global_coo(grid, A.shape, A.row, A.col, A.data)
        dB = DistSparseMatrix.from_global_coo(grid, B.shape, B.row, B.col, B.data)
        dC = dA.spgemm(dB, arithmetic_semiring())
        assert np.allclose(dense_of(dC), (A @ B).toarray())

    def test_grid_size_invariance(self):
        """Results are bit-identical across P: the process grid changes
        where entries live, never their values."""
        rng = np.random.default_rng(12)
        A = sp.random(21, 21, density=0.2, random_state=rng, format="coo")
        references = []
        for p in (1, 4, 9, 16):
            g = ProcGrid(SimWorld(p, zero_cost()))
            dA = DistSparseMatrix.from_global_coo(g, A.shape, A.row, A.col, A.data)
            dC = dA.spgemm(dA, arithmetic_semiring())
            references.append(dense_of(dC))
        for other in references[1:]:
            assert np.allclose(references[0], other)

    def test_inner_dim_mismatch(self, grid4):
        _, a = random_dist(grid4, 5, 6)
        _, b = random_dist(grid4, 5, 6)
        with pytest.raises(DistributionError):
            a.spgemm(b, arithmetic_semiring())

    def test_exclude_diagonal(self, grid4):
        _, a = random_dist(grid4, 8, 8, density=0.5, seed=13)
        c = a.spgemm(a, arithmetic_semiring(), exclude_diagonal=True)
        rr, cc, _ = c.to_global_coo()
        assert np.all(rr != cc)

    def test_spgemm_charges_compute_and_bcast(self):
        w = SimWorld(4, cori_haswell())
        g = ProcGrid(w)
        _, a = random_dist(g, 16, 16, density=0.4, seed=14)
        a.spgemm(a, arithmetic_semiring())
        assert w.clock.total_seconds() > 0
        assert w.log.total_bytes(op="bcast") > 0

    def test_panels_are_sorted_once_not_per_rank_step(self, monkeypatch):
        """A phased SUMMA prepares each operand block once: P column sorts
        of A, P row sorts of B, one set of column pointers per A row panel,
        and no per-phase ``select``.  Each rank forms its whole product in
        one step -- one join, or runs of whole output columns when the
        product bound splits it -- and each run gets every B entry of its
        columns, in row order, and no run is re-sorted."""
        g = ProcGrid(SimWorld(16, zero_cost()))
        _, a = random_dist(g, 40, 40, density=0.3, seed=15)
        # 50 columns per grid column: most of the 32 phases own two
        _, b = random_dist(g, 40, 200, density=0.3, seed=16)
        sorted_by, select = LocalCoo.sorted_by, LocalCoo.select
        spgemm_run, column_pointers = distmat.spgemm_run, distmat.column_pointers
        panel_product = distmat._panel_product
        want = dense_of(a.spgemm(b, arithmetic_semiring()))

        for bound, one_join in ((2**62, True), (1, False)):
            real_sorts, runs, pointer_builds, products, selects = [], [], [], [], []

            def counting_sorted_by(self, order="row"):
                if self.order != order:
                    real_sorts.append(order)
                return sorted_by(self, order)

            def counting_select(self, mask):
                selects.append(mask)
                return select(self, mask)

            def counting_column_pointers(blk):
                pointer_builds.append(blk)
                return column_pointers(blk)

            def counting_panel_product(*args):
                products.append(runs[:])
                return panel_product(*args)

            def checking_spgemm_run(a_pnl, b_pnl, semiring, entries, *rest):
                # A by (col, row); the run's B entries in row order, and
                # all of its columns' entries
                cols = np.unique(b_pnl.cols[entries])
                runs.append((
                    a_pnl.order,
                    bool(np.all(np.diff(b_pnl.rows[entries]) >= 0)),
                    np.isin(b_pnl.cols, cols).sum() == entries.size,
                ))
                return spgemm_run(a_pnl, b_pnl, semiring, entries, *rest)

            with monkeypatch.context() as m:
                m.setattr(spgemm_mod, "_PRODUCTS_PER_JOIN", bound)
                m.setattr(LocalCoo, "sorted_by", counting_sorted_by)
                m.setattr(LocalCoo, "select", counting_select)
                m.setattr(distmat, "column_pointers", counting_column_pointers)
                m.setattr(distmat, "_panel_product", counting_panel_product)
                m.setattr(distmat, "spgemm_run", checking_spgemm_run)
                phased = a.spgemm(b, arithmetic_semiring(), phases=32)

            assert len(products) == g.nprocs  # every rank multiplies, once
            if one_join:
                assert len(runs) == g.nprocs
            else:  # a bound of one product: a run per column that forms any
                assert g.nprocs < len(runs) <= 200 * g.q
            assert set(runs) == {("col", True, True)}
            assert sorted(real_sorts) == ["col"] * g.nprocs + ["row"] * g.nprocs
            assert len(pointer_builds) == g.q
            assert not selects
            assert np.array_equal(dense_of(phased), want)

    @pytest.mark.parametrize("merge_mode", ["bulk", "stream"])
    def test_phase_slices_equal_the_unphased_product(self, merge_mode):
        """B's phase sub-panels are slices of one sort; any phase count --
        more phases than a grid column has columns included, so some
        phases own no column -- reproduces the unphased blocks exactly."""
        g = ProcGrid(SimWorld(16, cori_haswell()))
        _, a = random_dist(g, 30, 26, density=0.3, seed=20)
        _, b = random_dist(g, 26, 22, density=0.3, seed=21)
        sr = arithmetic_semiring()
        want = a.spgemm(b, sr, merge_mode=merge_mode)
        for phases in (1, 2, 7, 32):  # 22 columns: 5 or 6 per grid column
            got = a.spgemm(b, sr, merge_mode=merge_mode, phases=phases)
            for bg, bw in zip(got.blocks, want.blocks):
                assert np.array_equal(bg.rows, bw.rows), phases
                assert np.array_equal(bg.cols, bw.cols), phases
                assert np.array_equal(bg.vals, bw.vals), phases

    def test_plan_unchanged_on_a_fixed_budgeted_case(self):
        """The planner reads each block's column counts once; its plan is
        the one the per-stage symbolic pass produced."""
        g = ProcGrid(SimWorld(16, cori_haswell()))
        _, a = random_dist(g, 80, 60, density=0.3, seed=22)
        plan = SpgemmPlan.choose(
            a, a.transpose(), arithmetic_semiring(), MemoryBudget(20_000.0)
        )
        assert plan.fits and plan.phases == 4
        assert plan.est_peak_bytes == 19752.0
        assert plan.est_by_phases == {1: 41640.0, 2: 26976.0, 4: 19752.0}


class TestRowReduce:
    def test_degree_vector_matches_scipy(self, grid):
        M, dist = random_dist(grid, 25, 25, density=0.2, seed=15)
        deg = dist.row_reduce()
        expected = (M.toarray() != 0).sum(axis=1)
        assert np.array_equal(deg.to_global(), expected)


class TestClearRowsAndCols:
    def test_masks_rows_and_columns(self, grid4):
        M, dist = random_dist(grid4, 12, 12, density=0.5, seed=17)
        masked = dist.clear_rows_and_cols(
            [np.array([3]), np.array([7]), np.array([], dtype=np.int64),
             np.array([], dtype=np.int64)]
        )
        rr, cc, _ = masked.to_global_coo()
        for bad in (3, 7):
            assert not np.any(rr == bad)
            assert not np.any(cc == bad)

    def test_indexing_unchanged(self, grid4):
        """Paper: "the indexing of the matrix does not change"."""
        _, dist = random_dist(grid4, 12, 12, seed=18)
        masked = dist.clear_rows_and_cols([np.array([0])] + [np.array([], dtype=np.int64)] * 3)
        assert masked.shape == dist.shape

    def test_empty_mask_is_noop(self, grid4):
        _, dist = random_dist(grid4, 12, 12, seed=19)
        masked = dist.clear_rows_and_cols(
            [np.array([], dtype=np.int64)] * grid4.nprocs
        )
        assert masked.nnz() == dist.nnz()
