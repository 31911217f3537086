"""One-key sorts equal the two-key ``np.lexsort`` they replace, ties included.

Every ``(row, col)``-style sort in the library is one stable argsort of a
fused int64 key.  Stability is what keeps keep-first duplicates and
first-on-ties seeds unchanged, so every input here has duplicate
coordinates (or equal secondary keys) with distinct payloads: a sort that
broke ties differently would show.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import ProcGrid, SimWorld, zero_cost
from repro.mpi.comm import block_owner, block_range
from repro.sparse import DistSparseMatrix, LocalCoo, seed_semiring
from repro.sparse.distmat import _column_panels, _row_panels
from repro.sparse.types import SEED_DTYPE

SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# lexsort references
# ---------------------------------------------------------------------------


def ref_sorted(blk, order):
    if order == "row":
        perm = np.lexsort((blk.cols, blk.rows))
    else:
        perm = np.lexsort((blk.rows, blk.cols))
    return blk.rows[perm], blk.cols[perm], blk.vals[perm]


def ref_deduped_first(blk, order="row"):
    r, c, v = ref_sorted(blk, order)
    first = np.ones(r.size, dtype=bool)
    first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    return r[first], c[first], v[first]


def ref_column_panel(blk, grid, j):
    """Grid column ``j``'s entries of global ``blk`` by (row, col), ties in
    input order, and each one's stage (its row block)."""
    n, m = blk.shape
    mine = block_owner(m, grid.q, blk.cols) == j
    rows, cols, vals = blk.rows[mine], blk.cols[mine], blk.vals[mine]
    perm = np.lexsort((cols, rows))
    return (
        (rows[perm], cols[perm] - block_range(m, grid.q, j)[0], vals[perm]),
        block_owner(n, grid.q, rows[perm]),
    )


def segment_ids(starts, n):
    return np.repeat(np.arange(starts.size), np.diff(np.append(starts, n)))


def ref_seed_add(vals, starts):
    order = np.lexsort((vals["pos_a"], segment_ids(starts, vals.size)))
    out = vals[order[starts]]
    out["count"] = np.add.reduceat(vals["count"], starts)
    return out


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@st.composite
def blocks(draw):
    """A COO block with repeated coordinates; payload = input position."""
    nr = draw(st.integers(1, 12))
    nc = draw(st.integers(1, 40))
    cell = st.tuples(st.integers(0, nr - 1), st.integers(0, nc - 1))
    coords = draw(st.lists(cell, max_size=80))
    # repeat a prefix so duplicates are common, not luck
    coords = coords + coords[: draw(st.integers(0, len(coords)))]
    rows = np.array([r for r, _c in coords], dtype=np.int64)
    cols = np.array([c for _r, c in coords], dtype=np.int64)
    return LocalCoo((nr, nc), rows, cols, np.arange(rows.size, dtype=np.int64))


@st.composite
def segmented(draw, dtype, field):
    """Records of ``dtype`` cut into segments; ``field`` has many ties and
    every other field is the record's input position."""
    n = draw(st.integers(1, 60))
    keys = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else set()
    vals = np.zeros(n, dtype=dtype)
    for name in dtype.names:
        vals[name] = np.arange(n) % np.iinfo(dtype[name]).max
    vals[field] = keys
    return vals, np.array([0, *sorted(cuts)], dtype=np.int64)


def assert_triples_equal(got, want):
    for g, w, name in zip(got, want, ("rows", "cols", "vals")):
        assert np.array_equal(g, w), name


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


class TestOneKeySortsEqualLexsort:
    @given(blocks(), st.sampled_from(["row", "col"]))
    @settings(max_examples=150, deadline=None)
    def test_sorted_by(self, blk, order):
        got = blk.sorted_by(order)
        assert got.order == order
        assert_triples_equal((got.rows, got.cols, got.vals), ref_sorted(blk, order))

    @given(blocks(), st.sampled_from(["row", "col"]))
    @settings(max_examples=150, deadline=None)
    def test_deduped_keeps_the_first_duplicate(self, blk, order):
        got = blk.deduped(lambda v, starts: v[starts], order=order)
        if blk.nnz:
            assert got.order == order
        assert_triples_equal(
            (got.rows, got.cols, got.vals), ref_deduped_first(blk, order)
        )

    @given(blocks(), st.sampled_from([1, 4, 9]))
    @settings(max_examples=150, deadline=None)
    def test_column_panels(self, blk, nprocs):
        """A SUMMA B column panel -- the grid column's row-sorted blocks
        stacked in stage order -- is the lexsort of its entries by (row,
        col), each tagged with its stage, duplicates in input order."""
        grid = ProcGrid(SimWorld(nprocs, zero_cost()))
        dist = DistSparseMatrix.from_global_coo(
            grid, blk.shape, blk.rows, blk.cols, blk.vals
        )
        blocks = [b.sorted_by("row") for b in dist.blocks]
        stacked = _column_panels(grid, blocks, blk.shape)
        for j, (panel, stage) in enumerate(stacked):
            (rows, cols, vals), want_stage = ref_column_panel(blk, grid, j)
            assert panel.order == "row"
            assert_triples_equal((panel.rows, panel.cols, panel.vals), (rows, cols, vals))
            assert np.array_equal(stage, want_stage)
        # B = A^T: each column panel is an A row panel transposed, a view
        # equal to the stacked one
        a = dist.transpose()
        a_blocks = [b.sorted_by("col") for b in a.blocks]
        at = DistSparseMatrix(grid, a.shape, a_blocks).transpose()
        rows = _row_panels(grid, a_blocks, a.shape, keyed=False)
        shared = _column_panels(grid, at.blocks, at.shape, a_blocks, rows)
        for (panel, stage), (view, view_stage), (row, *_) in zip(stacked, shared, rows):
            assert view.rows is row.cols
            assert view.order == "row"
            assert_triples_equal((view.rows, view.cols, view.vals), (panel.rows, panel.cols, panel.vals))
            assert np.array_equal(view_stage, stage)

    @given(segmented(SEED_DTYPE, "pos_a"))
    @settings(max_examples=150, deadline=None)
    def test_seed_add_first_minimal_pos_a(self, data):
        vals, starts = data
        got = seed_semiring().add_reduce(vals, starts)
        assert np.array_equal(got, ref_seed_add(vals, starts))

    @pytest.mark.parametrize("order", ["row", "col"])
    def test_wide_blocks_do_not_overflow(self, order):
        """The fused key holds a block of ~2**62 cells."""
        n = 1 << 31
        blk = LocalCoo(
            (n, n),
            np.array([n - 1, 0, n - 1, 5]),
            np.array([n - 1, n - 1, 0, 5]),
            np.arange(4),
        )
        got = blk.sorted_by(order)
        assert_triples_equal((got.rows, got.cols, got.vals), ref_sorted(blk, order))


def test_no_lexsort_left_in_the_library():
    """Every coordinate sort goes through the one fused key."""
    hits = [
        f"{path.relative_to(SRC)}:{i}"
        for path in sorted(SRC.rglob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "lexsort" in line
    ]
    assert hits == []
