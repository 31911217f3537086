"""Local sparse x sparse multiplication over an arbitrary semiring.

The kernel joins on the contraction index and accumulates into output
slots, as CombBLAS's hash / SPA kernel does per column.  With A's entries
sorted by column and B's by row (the distributed layer sorts each
operand once; a :class:`LocalCoo` remembers its order), A's CSC column
pointers (:func:`column_pointers`, which the distributed layer builds
once per A row panel) lay out all (A-entry, B-entry) pairs B-major with
index arithmetic (no Python loop over nonzeros): B entry ``(k, c)`` meets the
slice of A's column ``k`` (:func:`join_extents`), so every output cell
receives its products in contraction-index order.  Each product's fused
row-major cell key is then ranked among the distinct keys -- through a
dense presence table when the block has few cells per product,
``np.unique`` otherwise -- and that rank is the product's output slot;
the products themselves are never sorted by coordinate.  A semiring with
a ``slot_reduce`` (the seed semiring) reduces straight into the slots;
any other forms its products with ``multiply`` and combines them with
the segmented ``add_reduce`` behind one stable argsort of the slot ids.

:func:`spgemm_local` multiplies two blocks.  :func:`spgemm_run` is the
distributed layer's form: one run of whole output columns of a row-sorted
B panel whose entries carry their SUMMA stage, returning besides the
product which stages formed a product in each cell -- what the
stage-by-stage schedule the cost model charges would have held.

``strict_upper`` forms only the products with ``row < col``.  A is sorted
by the fused ``(col, row)`` key, so rows ascend inside each A column and
B entry ``(k, c)`` joins a *prefix* of column ``k``: the entries before
``(k, min(c, nrows))`` in that key (:func:`column_key`, which the
distributed layer builds inside each diagonal rank's step).  No
lower-triangle product is ever expanded.

:func:`spgemm_local` returns the number of elementary products formed
(the "flops" of the multiplication), so the distributed layer can charge
modeled compute time; the panel join counts them from
:func:`join_extents`.
"""

from __future__ import annotations

import numpy as np

from ..errors import SparseFormatError
from ..util import cumsum0 as _cumsum0, ragged_arange
from .coo import LocalCoo, fused_key
from .semiring import Semiring

__all__ = [
    "spgemm_local",
    "spgemm_run",
    "spgemm_symbolic",
    "column_pointers",
    "column_key",
    "join_extents",
]


def column_pointers(a: LocalCoo) -> np.ndarray:
    """CSC index pointer of a column-sorted block: column ``k``'s entries
    are ``a_ptr[k]:a_ptr[k + 1]``.  int32 while the block has fewer than
    2**31 entries: a row panel's pointers span every contraction column,
    so they can outweigh the panel's own entries."""
    ptr = np.zeros(a.shape[1] + 1, np.int32 if a.nnz < 2**31 else np.int64)
    np.cumsum(np.bincount(a.cols, minlength=a.shape[1]), out=ptr[1:])
    return ptr


def column_key(a: LocalCoo) -> np.ndarray:
    """The fused ``(col, row)`` key of a column-sorted block, ascending."""
    return fused_key(a.cols, a.rows, a.shape[0])


def _upper_ends(a_key: np.ndarray, nrows: int, b: LocalCoo) -> np.ndarray:
    """Per B entry ``(k, c)``: the end of A column ``k``'s rows below ``c``
    -- the first index whose ``(col, row)`` key reaches ``(k, min(c, nrows))``."""
    return np.searchsorted(a_key, b.rows * nrows + np.minimum(b.cols, nrows))


def join_extents(
    a: LocalCoo, b: LocalCoo, a_ptr: np.ndarray, a_key: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per B entry ``(k, c)``: the first column-sorted A entry it meets and
    how many -- all of A's column ``k``, or with ``a_key`` (a strict-upper
    join) the prefix of it with rows ``< c``."""
    first = a_ptr[b.rows]
    if a_key is None:
        return first, a_ptr[1:][b.rows] - first
    return first, _upper_ends(a_key, a.shape[0], b) - first


#: slot ids come from a dense presence table while the output block has at
#: most this many cells per product; past it, touching every cell costs more
#: than ``np.unique``'s sort of the keys
_DENSE_CELLS_PER_PRODUCT = 4

#: the distributed layer joins a rank's A row panel against its B column
#: panel in runs of whole output columns forming at most this many products
#: each (a column forming more is a run of its own).  Per product, on a
#: 2-core Xeon host (numpy 2.4), ``lowerr_diag_p16``'s A . A^T costs ~79 ns
#: as one uncut ~330 k-product join per rank, ~53 ns at 2**14, ~45 ns at
#: 2**15 and ~41 ns at 2**16-2**17: few calls, and each join's working set
#: stays cache-sized
_PRODUCTS_PER_JOIN = 2**16

#: the panel join's product-sized work arrays, reused run after run: freed
#: and allocated again, a run's temporaries come back from the allocator as
#: fresh pages, whose faults cost a run ~20-30 % of its time.  Each holds
#: the products of one bounded run; a larger run allocates its own
_WORK: dict[str, np.ndarray] = {}
_WORK_SIZE = _PRODUCTS_PER_JOIN


def _work(name: str, size: int) -> np.ndarray:
    """``size`` int64 slots of the named work array (uninitialized); each
    grows by doubling, up to ``_WORK_SIZE``."""
    if size > _WORK_SIZE:
        return np.empty(size, dtype=np.int64)
    buf = _WORK.get(name)
    if buf is None or buf.size < size:
        buf = _WORK[name] = np.empty(_grown(buf, size), dtype=np.int64)
    return buf[:size]


def _arange(size: int) -> np.ndarray:
    """``np.arange(size)``, read-only, from a cached one when it fits."""
    if size > _WORK_SIZE:
        return np.arange(size, dtype=np.int64)
    ramp = _WORK.get("arange")
    if ramp is None or ramp.size < size:
        ramp = _WORK["arange"] = np.arange(_grown(ramp, size), dtype=np.int64)
    return ramp[:size]


def _grown(buf: np.ndarray | None, size: int) -> int:
    """The size a work array holding ``buf`` grows to for ``size`` slots."""
    return min(max(size, 2 * (1024 if buf is None else buf.size)), _WORK_SIZE)


def _output_slots(
    keys: np.ndarray, ncells: int, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Each key's rank among the distinct keys (in ``out``, when given and
    the presence table is used), and those keys ascending."""
    if ncells <= _DENSE_CELLS_PER_PRODUCT * keys.size:
        present = np.zeros(ncells, dtype=bool)
        present[keys] = True
        rank = np.cumsum(present)
        rank -= 1
        # (indices in range by construction: "clip" writes ``out`` directly)
        return np.take(rank, keys, out=out, mode="clip"), np.flatnonzero(present)
    out_keys, slots = np.unique(keys, return_inverse=True)
    return slots, out_keys


def _reduce(
    a, b, a_take, b_take, keys, ncells, semiring, stage_ends=None, out=None
):
    """Reduce product ``p`` (``a.vals[a_take[p]] x b.vals[b_take[p]]``)
    into output cell ``keys[p] < ncells``, products in input order on ties
    (the slot ids may go to ``out``).

    Returns the distinct cell keys ascending and their reduced values --
    and, given ``stage_ends`` (where each stage's contiguous range of
    products ends), which stages formed a valid product in each of those
    cells, as a ``(stages, cells)`` bool array -- or ``None`` when no
    product is valid.
    """
    fused = semiring.slot_reduce is not None
    if not fused:
        vals = semiring.multiply(a.vals[a_take], b.vals[b_take])
        if semiring.valid_mask is not None and keys.size:
            valid = semiring.valid_mask(vals)
            keys, vals = keys[valid], vals[valid]
            if stage_ends is not None:
                stage_ends = _cumsum0(valid)[stage_ends]
    if keys.size == 0:
        return None
    slots, out_keys = _output_slots(
        keys, ncells, None if out is None else out[: keys.size]
    )
    if fused:
        reduced = semiring.slot_reduce(
            a.vals, a_take, b.vals, b_take, slots, out_keys.size
        )
    else:
        starts = _cumsum0(np.bincount(slots, minlength=out_keys.size))[:-1]
        order = np.argsort(slots, kind="stable")
        reduced = semiring.add_reduce(vals[order], starts)
    if stage_ends is None:
        return out_keys, reduced
    seen = np.zeros((stage_ends.size, out_keys.size), dtype=bool)
    for row, p0, p1 in zip(seen, [0, *stage_ends[:-1]], stage_ends):
        row[slots[p0:p1]] = True
    return out_keys, reduced, seen


def spgemm_symbolic(
    a: LocalCoo,
    b: LocalCoo,
    a_counts: np.ndarray | None = None,
    strict_upper: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Symbolic SpGEMM: per-output-column flop and nnz upper bounds.

    The structural half of the multiplication only -- no payloads are
    formed, no join is expanded.  For ``C = A . B`` this returns two
    ``int64`` arrays of length ``b.shape[1]``:

    * ``flops[c]``: the exact number of elementary products landing in
      output column ``c`` (the sum over B entries ``(k, c)`` of the number
      of A entries in column ``k``);
    * ``nnz_ub[c]``: an upper bound on the nonzeros of output column ``c``
      after the semiring reduction, ``min(flops[c], a.shape[0])``.

    With ``strict_upper`` both count only the products :func:`spgemm_local`
    forms under the same flag -- the A entries of column ``k`` with row
    ``< c`` -- and ``nnz_ub[c]`` is also at most ``c``.

    ``flops.sum()`` equals the ``flops`` count :func:`spgemm_local` reports
    for the same operands.  The distributed layer's phase planner takes
    the same bounds stage by stage from one :func:`join_extents` pass over
    a rank's panels, to size column phases against a
    :class:`~repro.mpi.memory.MemoryBudget` without ever materializing a
    partial product.  ``a_counts`` is ``a.col_counts()``, for a caller
    that pairs one A block with many B blocks.
    """
    if a.shape[1] != b.shape[0]:
        raise SparseFormatError(
            f"inner dimensions disagree: {a.shape} x {b.shape}"
        )
    nrows, ncols = a.shape[0], b.shape[1]
    flops = np.zeros(ncols, dtype=np.int64)
    if a.nnz == 0 or b.nnz == 0:
        return flops, flops.copy()
    if strict_upper:
        # B entry (k, c) expands into A column k's rows below c
        a_key = column_key(a.sorted_by("col"))
        counts = _upper_ends(a_key, nrows, b) - np.searchsorted(
            a_key, b.rows * nrows
        )
        np.add.at(flops, b.cols, counts)
        return flops, np.minimum(flops, np.minimum(np.arange(ncols), nrows))
    # every B entry (k, c) expands into as many products as A column k has
    a_counts = a.col_counts() if a_counts is None else a_counts
    np.add.at(flops, b.cols, a_counts[b.rows])
    nnz_ub = np.minimum(flops, int(nrows))
    return flops, nnz_ub


def spgemm_local(
    a: LocalCoo,
    b: LocalCoo,
    semiring: Semiring,
    exclude_diagonal: bool = False,
    a_ptr: np.ndarray | None = None,
    strict_upper: bool = False,
    a_key: np.ndarray | None = None,
) -> tuple[LocalCoo, int]:
    """Compute ``C = A . B`` over ``semiring`` on local COO blocks.

    Parameters
    ----------
    a, b:
        Local blocks with ``a.shape[1] == b.shape[0]`` (local contraction
        dimension must agree).  Either is sorted first unless its
        ``order`` says it already is: ``a`` by column, ``b`` by row.
    semiring:
        The multiply/add pair; if it defines ``valid_mask``, invalid
        products are dropped before reduction.
    exclude_diagonal:
        Drop products landing on ``row == col`` -- used by ``A . A^T`` where
        a read trivially shares all k-mers with itself, and by transitive
        reduction.  Only meaningful when the caller knows local coordinates
        coincide with global ones (square blocks on the grid diagonal are
        handled by the distributed layer instead).
    a_ptr:
        ``column_pointers`` of ``a`` sorted by column, for a caller that
        joins one A block against many B blocks; built here when ``None``.
    strict_upper:
        Form only the products with ``row < col`` (so the diagonal is
        excluded too): each B entry joins a prefix of its A column.  Like
        ``exclude_diagonal``, local coordinates are taken as global ones --
        the distributed layer asks for it on diagonal grid blocks only.
    a_key:
        ``column_key`` of ``a`` sorted by column, for ``strict_upper``;
        built here when ``None``.

    Returns
    -------
    (product, flops):
        The product block and the number of elementary products expanded.
    """
    if a.shape[1] != b.shape[0]:
        raise SparseFormatError(
            f"inner dimensions disagree: {a.shape} x {b.shape}"
        )
    out_shape = (a.shape[0], b.shape[1])
    if a.nnz == 0 or b.nnz == 0:
        return LocalCoo.empty(out_shape, semiring.out_dtype), 0

    a, b = a.sorted_by("col"), b.sorted_by("row")
    a_ptr = column_pointers(a) if a_ptr is None else a_ptr
    if strict_upper and a_key is None:
        a_key = column_key(a)
    # B-major pointer join: B entry (k, c) meets A's column k (with
    # strict_upper, the prefix of it with row < c).  Each B column's
    # entries are in row order, so each output cell receives its products
    # in k order
    first, count = join_extents(a, b, a_ptr, a_key if strict_upper else None)
    a_take = ragged_arange(first, count)
    b_take = np.repeat(np.arange(b.nnz), count)
    flops = int(a_take.size)
    ncols = out_shape[1]
    # one fused row-major key per product: its rank among the distinct keys
    # is the product's output slot
    rows = a.rows[a_take]
    cols = np.repeat(b.cols, count)
    keys = rows * ncols
    keys += cols
    if exclude_diagonal:
        keep = rows != cols
        keys, a_take, b_take = keys[keep], a_take[keep], b_take[keep]
    reduced = _reduce(a, b, a_take, b_take, keys, out_shape[0] * ncols, semiring)
    if reduced is None:
        return LocalCoo.empty(out_shape, semiring.out_dtype), flops
    out_keys, vals = reduced
    rows, cols = np.divmod(out_keys, ncols)
    return LocalCoo(out_shape, rows, cols, vals, order="row"), flops


def spgemm_run(
    a: LocalCoo,
    b: LocalCoo,
    semiring: Semiring,
    entries: np.ndarray,
    first: np.ndarray,
    count: np.ndarray,
    stage_sizes: np.ndarray,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """One run of a panel product: ``A . B`` over ``semiring`` restricted to
    B's ``entries`` -- the row-sorted entries of a run of whole columns of
    a B panel whose rows are the global contraction index.

    ``first`` / ``count`` are the entries' :func:`join_extents` against the
    column-sorted ``a`` (strict-upper prefixes included), and
    ``stage_sizes[s]`` says how many of them the ``s``-th SUMMA stage
    holds (the stages' rows ascend, so each stage's entries -- and
    products -- are a contiguous range).  Every cell receives its products
    in contraction order: a cell's value is what reducing it stage by
    stage, then merging the stages in order, gives.

    Returns the product's ``(rows, cols, vals)`` sorted row-major, and a
    ``(stages, nnz)`` bool array: which stages formed a valid product in
    each of those cells -- the stage partials' cells.
    """
    offsets = _cumsum0(count)
    nprod = int(offsets[-1])
    stage_ends = offsets[_cumsum0(stage_sizes)[1:]]
    formed = count > 0
    entries, first, starts = entries[formed], first[formed], offsets[:-1][formed]
    del offsets, formed  # per B entry of the run: the products' arrays follow
    # each product's B entry, from a running count of entry starts: a run
    # splits B's rows, so its counts vary entry to entry, which a gather
    # takes at the same speed and ``np.repeat`` does not
    entry = _work("entry", nprod)
    entry.fill(0)
    entry[starts[1:]] = 1
    np.cumsum(entry, out=entry)
    a_take = np.take(first - starts, entry, out=_work("a_take", nprod), mode="clip")
    a_take += _arange(nprod)
    b_take = np.take(entries, entry, out=_work("b_take", nprod), mode="clip")
    cols = b.cols[entries]
    lo = int(cols.min()) if cols.size else 0
    width = int(cols.max()) + 1 - lo if cols.size else 0
    # row-major keys over the run's columns only
    keys = np.take(a.rows, a_take, out=_work("keys", nprod), mode="clip")
    keys *= width
    cols -= lo
    keys += np.take(cols, entry, out=_work("cols", nprod), mode="clip")
    reduced = _reduce(
        a, b, a_take, b_take, keys, a.shape[0] * width, semiring, stage_ends,
        _work("slots", nprod),
    )
    if reduced is None:
        empty = np.empty(0, dtype=np.int64)
        triples = (empty, empty, np.empty(0, semiring.out_dtype))
        return triples, np.zeros((stage_sizes.size, 0), dtype=bool)
    out_keys, vals, seen = reduced
    rows, cols = np.divmod(out_keys, width)
    cols += lo
    return (rows, cols, vals), seen
