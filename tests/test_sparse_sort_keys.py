"""One-key sorts equal the two-key ``np.lexsort`` they replace, ties included.

Every ``(row, col)``-style sort in the library orders one fused int64 key
through ``stable_order``, which value-sorts ``key * n + index``; it is
pinned to ``np.argsort(kind="stable")`` on its own.  Stability is what
keeps keep-first duplicates and first-on-ties seeds unchanged, so every
input here has duplicate coordinates (or equal secondary keys) with
distinct payloads: a sort that broke ties differently would show.
"""

from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import ProcGrid, SimWorld, zero_cost
from repro.mpi.comm import block_owner, block_range
from repro.sparse import DistSparseMatrix, LocalCoo, coo, seed_semiring
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


@st.composite
def keyed(draw):
    """``(keys, span)``: up to 1 500 keys in ``[0, span)`` drawn from a small
    pool that holds ``0`` and ``span - 1``, so ties are common and the
    extremes occur; spans reach past ``2**63 / n``."""
    n = draw(st.integers(0, 1500))
    span = draw(st.one_of(st.integers(1, 50), st.integers(1, 2**62)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.integers(0, span, draw(st.integers(0, 40)), dtype=np.int64)
    pool = np.concatenate([[0, span - 1], pool])
    return rng.choice(pool, n), span


def value_sorted(forced=True):
    """Every ``stable_order`` call takes the value sort, the small-input
    cut-off lowered to 0 (``forced``), or the library's own choice."""
    return mock.patch.object(coo, "_VALUE_SORT_MIN", 0) if forced else nullcontext()


def assert_triples_equal(got, want):
    for g, w, name in zip(got, want, ("rows", "cols", "vals")):
        assert np.array_equal(g, w), name


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


class TestStableOrder:
    """The value sort is the stable argsort: on every input, through the
    value sort itself (the small-input cut-off lowered to 0) and through
    the helper as the library calls it."""

    @staticmethod
    def both_ways(keys, span):
        with value_sorted():
            forced = coo.stable_order(keys, span)
        return forced, coo.stable_order(keys, span)

    @given(keyed())
    @settings(max_examples=200, deadline=None)
    def test_equals_stable_argsort(self, data):
        keys, span = data
        want = np.argsort(keys, kind="stable")
        for got in self.both_ways(keys, span):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "keys",
        [[], [0], [7], [3, 3, 3, 3], [5, 1, 5, 1, 0, 5], list(range(9, -1, -1))],
        ids=["empty", "one", "one-at-top", "all-tied", "ties", "descending"],
    )
    def test_small_and_tied(self, keys):
        keys = np.array(keys, dtype=np.int64)
        for got in self.both_ways(keys, 10):
            assert np.array_equal(got, np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("n", [1, 2, 3, 600])
    def test_keys_at_the_top_of_the_span(self, n):
        """``span * n`` just below ``2**63`` is value-sorted, with keys at
        ``span - 1`` (the largest value, ``span * n - 1``, fits); at
        ``2**63`` and past it the stable argsort runs -- small ``n``, huge
        span, never a huge array."""
        rng = np.random.default_rng(n)
        for span in (2**63 // n - 1, 2**63 // n, -(-(2**63) // n), 2**62 + 1):
            keys = span - 1 - rng.integers(0, 3, n)
            keys[::2] = span - 1
            for got in self.both_ways(keys, span):
                assert np.array_equal(got, np.argsort(keys, kind="stable")), span


class TestOneKeySortsEqualLexsort:
    """The blocks here are below the value sort's cut-off, so each property
    also runs with the cut-off lowered to 0."""

    @given(blocks(), st.sampled_from(["row", "col"]), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_sorted_by(self, blk, order, forced):
        with value_sorted(forced):
            got = blk.sorted_by(order)
        assert got.order == order
        assert_triples_equal((got.rows, got.cols, got.vals), ref_sorted(blk, order))

    @given(blocks(), st.sampled_from(["row", "col"]), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_deduped_keeps_the_first_duplicate(self, blk, order, forced):
        with value_sorted(forced):
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
        for j, (panel, stage_lo) in enumerate(stacked):
            (rows, cols, vals), want_stage = ref_column_panel(blk, grid, j)
            assert panel.order == "row"
            assert_triples_equal((panel.rows, panel.cols, panel.vals), (rows, cols, vals))
            stage = np.repeat(np.arange(grid.q), np.diff(stage_lo))
            assert np.array_equal(stage, want_stage)
        # B = A^T: each column panel is an A row panel transposed, a view
        # equal to the stacked one
        a = dist.transpose()
        a_blocks = [b.sorted_by("col") for b in a.blocks]
        at = DistSparseMatrix(grid, a.shape, a_blocks).transpose()
        rows = _row_panels(grid, a_blocks, a.shape)
        shared = _column_panels(grid, at.blocks, at.shape, a_blocks, rows)
        for (panel, stage), (view, view_stage), (row, _ptr) in zip(stacked, shared, rows):
            assert view.rows is row.cols
            assert view.order == "row"
            assert_triples_equal((view.rows, view.cols, view.vals), (panel.rows, panel.cols, panel.vals))
            assert np.array_equal(view_stage, stage)

    @given(segmented(SEED_DTYPE, "pos_a"), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_seed_add_first_minimal_pos_a(self, data, forced):
        vals, starts = data
        with value_sorted(forced):
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
