"""Unit and property tests for the local SpGEMM kernel."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SparseFormatError
from repro.sparse import (
    KMER_POS_DTYPE,
    SEED_DTYPE,
    LocalCoo,
    Semiring,
    arithmetic_semiring,
    column_pointers,
    count_semiring,
    seed_semiring,
    spgemm_local,
)


def to_coo(m: sp.coo_matrix) -> LocalCoo:
    return LocalCoo(m.shape, m.row, m.col, m.data)


def pair_semiring() -> Semiring:
    """Order-sensitive on purpose: a product is its ``(A id, B id)`` pair
    and each output cell keeps the first one that arrives."""
    return Semiring(
        name="first-pair",
        out_dtype=np.dtype(np.int64),
        multiply=lambda a, b: a * 1000 + b,
        add_reduce=lambda vals, starts: vals[starts],
    )


def ids_block(shape, rows, cols) -> LocalCoo:
    """A block whose payload is each entry's position as given."""
    return LocalCoo(shape, rows, cols, np.arange(len(rows), dtype=np.int64))


class TestPointerJoin:
    def test_column_pointers_skip_empty_columns(self):
        a = ids_block((3, 5), [2, 0, 1], [4, 1, 1]).sorted_by("col")
        # columns 0, 2 and 3 are empty
        assert column_pointers(a).tolist() == [0, 0, 2, 2, 2, 3]

    def test_empty_columns(self):
        a = ids_block((3, 5), [2, 0, 1], [4, 1, 1])
        b = ids_block((5, 2), [0, 1, 3, 4, 4], [1, 0, 0, 0, 1])
        c, flops = spgemm_local(a, b, pair_semiring())
        # B(1, 0) meets A(0, 1) and A(1, 1); B(4, *) meets A(2, 4)
        assert flops == 4
        cells = dict(zip(zip(c.rows.tolist(), c.cols.tolist()), c.vals.tolist()))
        assert cells == {(0, 0): 1 * 1000 + 1, (1, 0): 2 * 1000 + 1,
                         (2, 0): 0 * 1000 + 3, (2, 1): 0 * 1000 + 4}
        given, given_flops = spgemm_local(
            a, b, pair_semiring(), a_ptr=column_pointers(a.sorted_by("col"))
        )
        assert given_flops == flops and np.array_equal(given.vals, c.vals)

    def test_b_rows_with_no_a_column(self):
        a = ids_block((3, 4), [0, 1, 2], [0, 0, 2])
        b = ids_block((4, 3), [1, 1, 3], [0, 2, 1])
        c, flops = spgemm_local(a, b, pair_semiring())
        assert c.nnz == 0 and flops == 0 and c.shape == (3, 3)

    def test_b_without_entries(self):
        a = ids_block((3, 4), [0, 1, 2], [0, 0, 2]).sorted_by("col")
        b = LocalCoo.empty((4, 6), np.dtype(np.int64))
        c, flops = spgemm_local(a, b, pair_semiring(), a_ptr=column_pointers(a))
        assert c.nnz == 0 and flops == 0 and c.shape == (3, 6)

    def test_each_cell_takes_its_products_in_contraction_order(self):
        # cell (0, 0) is reached through k = 3, 1, 2 in storage order; the
        # first product to arrive is k = 1's, whichever side is stored first
        a = ids_block((1, 4), [0, 0, 0], [3, 1, 2])
        b = ids_block((4, 1), [2, 3, 1], [0, 0, 0])
        c, flops = spgemm_local(a, b, pair_semiring())
        assert flops == 3 and c.vals.tolist() == [1 * 1000 + 2]


class TestSpgemmLocal:
    def test_matches_scipy(self):
        rng = np.random.default_rng(1)
        A = sp.random(20, 15, density=0.2, random_state=rng, format="coo")
        B = sp.random(15, 25, density=0.2, random_state=rng, format="coo")
        C, flops = spgemm_local(to_coo(A), to_coo(B), arithmetic_semiring())
        ref = (A @ B).toarray()
        got = np.zeros_like(ref)
        got[C.rows, C.cols] = C.vals
        assert np.allclose(got, ref)
        assert flops > 0

    def test_dimension_mismatch(self):
        a = LocalCoo.empty((2, 3), np.dtype(np.float64))
        b = LocalCoo.empty((4, 2), np.dtype(np.float64))
        with pytest.raises(SparseFormatError):
            spgemm_local(a, b, arithmetic_semiring())

    def test_empty_operands(self):
        a = LocalCoo.empty((2, 3), np.dtype(np.float64))
        b = LocalCoo.empty((3, 2), np.dtype(np.float64))
        C, flops = spgemm_local(a, b, arithmetic_semiring())
        assert C.nnz == 0 and flops == 0

    def test_exclude_diagonal(self):
        eye = LocalCoo(
            (3, 3), np.arange(3), np.arange(3), np.ones(3)
        )
        C, _ = spgemm_local(eye, eye, arithmetic_semiring(), exclude_diagonal=True)
        assert C.nnz == 0

    def test_count_semiring_counts_shared_keys(self):
        # A: 2 reads x 3 kmers
        A = LocalCoo(
            (2, 3),
            np.array([0, 0, 1, 1]),
            np.array([0, 1, 1, 2]),
            np.ones(4, dtype=np.int64),
        )
        C, _ = spgemm_local(A, A.transpose(), count_semiring(), exclude_diagonal=True)
        dense = np.zeros((2, 2), dtype=np.int64)
        dense[C.rows, C.cols] = C.vals
        assert dense[0, 1] == 1 and dense[1, 0] == 1

    def test_flops_counts_expanded_products(self):
        A = LocalCoo(
            (2, 1), np.array([0, 1]), np.array([0, 0]), np.ones(2)
        )
        _, flops = spgemm_local(A, A.transpose(), arithmetic_semiring())
        assert flops == 4  # 2 entries share the single contraction key

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 12),
        k=st.integers(1, 12),
        m=st.integers(1, 12),
        density=st.floats(0.05, 0.6),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_scipy(self, seed, n, k, m, density):
        rng = np.random.default_rng(seed)
        A = sp.random(n, k, density=density, random_state=rng, format="coo")
        B = sp.random(k, m, density=density, random_state=rng, format="coo")
        C, _ = spgemm_local(to_coo(A), to_coo(B), arithmetic_semiring())
        ref = (A @ B).toarray()
        got = np.zeros_like(ref)
        if C.nnz:
            got[C.rows, C.cols] = C.vals
        assert np.allclose(got, ref)


# ---------------------------------------------------------------------------
# the seed semiring's slot reduction against the default sort + add_reduce
# ---------------------------------------------------------------------------


def kmer_block(rng, shape, nnz, max_pos):
    """A random KMER_POS_DTYPE block; a small ``max_pos`` forces pos ties."""
    cells = rng.choice(shape[0] * shape[1], size=min(nnz, shape[0] * shape[1]), replace=False)
    vals = np.zeros(cells.size, dtype=KMER_POS_DTYPE)
    vals["pos"] = rng.integers(0, max_pos, size=cells.size)
    vals["orient"] = rng.choice([-1, 1], size=cells.size)
    return LocalCoo(shape, cells // shape[1], cells % shape[1], vals)


def contraction_order_products(a, b, exclude_diagonal):
    """Every product ``(cell, ia, ib)`` as a plain nested loop over the
    contraction index ``k`` (the blocks hold no duplicate coordinates, so
    a cell meets at most one product per ``k``)."""
    for k in range(a.shape[1]):
        for ia in np.flatnonzero(a.cols == k):
            for ib in np.flatnonzero(b.rows == k):
                cell = (int(a.rows[ia]), int(b.cols[ib]))
                if not (exclude_diagonal and cell[0] == cell[1]):
                    yield cell, ia, ib


def seed_reference(a, b, exclude_diagonal, first_wins=False):
    """The definition, one product at a time in contraction order: count
    the products of each output cell and keep the seed of the smallest
    pos_a, first on ties (or simply the first, with ``first_wins``)."""
    cells = {}
    for cell, ia, ib in contraction_order_products(a, b, exclude_diagonal):
        count, best = cells.get(cell, (0, None))
        if best is None or (
            not first_wins and a.vals["pos"][ia] < a.vals["pos"][best[0]]
        ):
            best = (ia, ib)
        cells[cell] = (count + 1, best)
    out = np.zeros(len(cells), dtype=SEED_DTYPE)
    for slot, cell in enumerate(sorted(cells)):
        count, (ia, ib) = cells[cell]
        out[slot] = (
            count, a.vals["pos"][ia], b.vals["pos"][ib],
            a.vals["orient"][ia] == b.vals["orient"][ib],
        )
    coords = np.array(sorted(cells), dtype=np.int64).reshape(-1, 2)
    return coords[:, 0], coords[:, 1], out


def assert_seed_paths_agree(a, b, exclude_diagonal):
    """Slot reduction == default path == the loop reference, field for field."""
    default = dataclasses.replace(seed_semiring(), slot_reduce=None)
    fast, flops = spgemm_local(a, b, seed_semiring(), exclude_diagonal)
    slow, slow_flops = spgemm_local(a, b, default, exclude_diagonal)
    rows, cols, vals = seed_reference(a, b, exclude_diagonal)
    assert flops == slow_flops
    for got in (fast, slow):
        assert got.dtype == SEED_DTYPE
        assert np.array_equal(got.rows, rows) and np.array_equal(got.cols, cols)
        assert np.array_equal(got.vals, vals)
    return fast, flops


class TestSeedSlotReduction:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 40),
        k=st.integers(1, 8),
        m=st.integers(1, 40),
        fill_a=st.floats(0.0, 1.0),
        fill_b=st.floats(0.0, 1.0),
        max_pos=st.sampled_from([1, 3, 1000]),
        exclude_diagonal=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_equals_default_path(
        self, seed, n, k, m, fill_a, fill_b, max_pos, exclude_diagonal
    ):
        rng = np.random.default_rng(seed)
        a = kmer_block(rng, (n, k), int(fill_a * n * k), max_pos)
        b = kmer_block(rng, (k, m), int(fill_b * k * m), max_pos)
        assert_seed_paths_agree(a, b, exclude_diagonal)

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 30),
        k=st.integers(1, 8),
        m=st.integers(1, 30),
        fill_a=st.floats(0.0, 1.0),
        fill_b=st.floats(0.0, 1.0),
        max_pos=st.sampled_from([1, 3]),
        exclude_diagonal=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_order_sensitive_add_sees_contraction_order(
        self, seed, n, k, m, fill_a, fill_b, max_pos, exclude_diagonal
    ):
        """A first-wins ``add_reduce`` (no ``slot_reduce``) keeps, per cell,
        the product of the smallest contraction index: the order the join
        promises.  Few positions make many seeds tie on everything but it."""

        def first_wins(vals, starts):
            out = vals[starts].copy()
            out["count"] = np.add.reduceat(vals["count"], starts)
            return out

        first = dataclasses.replace(
            seed_semiring(), add_reduce=first_wins, slot_reduce=None
        )
        rng = np.random.default_rng(seed)
        a = kmer_block(rng, (n, k), int(fill_a * n * k), max_pos)
        b = kmer_block(rng, (k, m), int(fill_b * k * m), max_pos)
        got, _ = spgemm_local(a, b, first, exclude_diagonal)
        rows, cols, vals = seed_reference(a, b, exclude_diagonal, first_wins=True)
        assert np.array_equal(got.rows, rows) and np.array_equal(got.cols, cols)
        assert np.array_equal(got.vals, vals)

    @pytest.mark.parametrize(
        "shape, nnz, dense", [((12, 3), 30, True), ((400, 50), 120, False)]
    )
    def test_both_sides_of_the_slot_id_choice(self, shape, nnz, dense):
        """Few cells per product: the dense presence table; many: np.unique."""
        from repro.sparse.spgemm import _DENSE_CELLS_PER_PRODUCT

        a = kmer_block(np.random.default_rng(5), shape, nnz, 4)
        prod, flops = assert_seed_paths_agree(a, a.transpose(), False)
        assert prod.nnz and prod.order == "row" and (
            shape[0] ** 2 <= _DENSE_CELLS_PER_PRODUCT * flops
        ) == dense

    def test_empty_operand(self):
        a = kmer_block(np.random.default_rng(1), (5, 4), 10, 9)
        empty = LocalCoo.empty((4, 5), KMER_POS_DTYPE)
        prod, flops = assert_seed_paths_agree(a, empty, False)
        assert prod.nnz == 0 and flops == 0

    def test_no_product_sort_and_no_per_product_seed_record(self, monkeypatch):
        """On sorted panels the seed path sorts nothing, and the only seed
        records it forms are the winners'."""
        a = kmer_block(np.random.default_rng(2), (30, 6), 150, 5).sorted_by("col")
        b = a.transpose()
        assert b.order == "row"
        want, want_flops = spgemm_local(
            a, b, dataclasses.replace(seed_semiring(), slot_reduce=None)
        )

        def no_sort(*args, **kwargs):
            raise AssertionError("the seed path sorted")

        seed_records = []
        real_empty = np.empty

        def spy_empty(shape, dtype=float, **kwargs):
            if dtype == SEED_DTYPE:
                seed_records.append(int(np.prod(shape)))
            return real_empty(shape, dtype=dtype, **kwargs)

        for name in ("lexsort", "argsort", "sort", "unique"):
            monkeypatch.setattr(np, name, no_sort)
        monkeypatch.setattr(np, "empty", spy_empty)
        got, flops = spgemm_local(a, b, seed_semiring())
        monkeypatch.undo()

        assert flops == want_flops and np.array_equal(got.vals, want.vals)
        assert seed_records == [got.nnz] and got.nnz < flops
