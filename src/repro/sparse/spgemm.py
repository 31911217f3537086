"""Local sparse x sparse multiplication over an arbitrary semiring.

The kernel joins on the contraction index and accumulates into output
slots, as CombBLAS's hash / SPA kernel does per column.  With A's entries
sorted by column and B's by row (the distributed layer sorts each block
once; a :class:`LocalCoo` remembers its order), A's CSC column pointers
(:func:`column_pointers`, which the distributed layer builds once per A
block) lay out all (A-entry, B-entry) pairs B-major with index arithmetic
(no Python loop over nonzeros): B entry ``(k, c)`` meets the slice of A's
column ``k``.  B is row-sorted, so every output cell receives its
products in contraction-index order.  Each product's fused
``row * ncols + col`` key is then ranked among the distinct keys --
through a dense presence table when the block has few cells per product,
``np.unique`` otherwise -- and that rank is the product's output slot;
the products themselves are never sorted by coordinate.  A semiring with
a ``slot_reduce`` (the seed semiring) reduces straight into the slots;
any other forms its products with ``multiply`` and combines them with
the segmented ``add_reduce`` behind one stable argsort of the slot ids.

``strict_upper`` forms only the products with ``row < col``.  A is sorted
by the fused ``(col, row)`` key, so rows ascend inside each A column and
B entry ``(k, c)`` joins a *prefix* of column ``k``: the entries before
``(k, min(c, nrows))`` in that key (:func:`column_key`, which the
distributed layer builds once per A block).  No lower-triangle product is
ever expanded.

Returns both the product and the number of elementary products formed (the
"flops" of the multiplication) so the distributed layer can charge modeled
compute time.
"""

from __future__ import annotations

import numpy as np

from ..errors import SparseFormatError
from ..util import cumsum0 as _cumsum0, ragged_arange
from .coo import LocalCoo, fused_key
from .semiring import Semiring

__all__ = ["spgemm_local", "spgemm_symbolic", "column_pointers", "column_key"]


def column_pointers(a: LocalCoo) -> np.ndarray:
    """CSC index pointer of a column-sorted block: column ``k``'s entries
    are ``a_ptr[k]:a_ptr[k + 1]``."""
    return np.searchsorted(a.cols, np.arange(a.shape[1] + 1))


def column_key(a: LocalCoo) -> np.ndarray:
    """The fused ``(col, row)`` key of a column-sorted block, ascending."""
    return fused_key(a.cols, a.rows, a.shape[0])


def _upper_ends(a_key: np.ndarray, nrows: int, b: LocalCoo) -> np.ndarray:
    """Per B entry ``(k, c)``: the end of A column ``k``'s rows below ``c``
    -- the first index whose ``(col, row)`` key reaches ``(k, min(c, nrows))``."""
    return np.searchsorted(a_key, b.rows * nrows + np.minimum(b.cols, nrows))


#: slot ids come from a dense presence table while the output block has at
#: most this many cells per product; past it, touching every cell costs more
#: than ``np.unique``'s sort of the keys
_DENSE_CELLS_PER_PRODUCT = 4


def _output_slots(keys: np.ndarray, ncells: int) -> tuple[np.ndarray, np.ndarray]:
    """Each key's rank among the distinct keys, and those keys ascending."""
    if ncells <= _DENSE_CELLS_PER_PRODUCT * keys.size:
        present = np.zeros(ncells, dtype=bool)
        present[keys] = True
        return np.cumsum(present)[keys] - 1, np.flatnonzero(present)
    out_keys, slots = np.unique(keys, return_inverse=True)
    return slots, out_keys


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
    for the same operands.  The distributed layer's phase planner sums
    these per-column bounds over SUMMA stages to size column phases
    against a :class:`~repro.mpi.memory.MemoryBudget` without ever
    materializing a partial product.  ``a_counts`` is ``a.col_counts()``,
    for a caller that pairs one A block with many B blocks.
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
        dimension must agree).
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

    a = a.sorted_by("col")
    b = b.sorted_by("row")
    a_ptr = column_pointers(a) if a_ptr is None else a_ptr
    # B-major pointer join: B entry (k, c) meets A's column k (with
    # strict_upper, the prefix of it with row < c).  B is row-sorted, so
    # each output cell receives its products in k order
    first = a_ptr[b.rows]
    if strict_upper:
        a_key = column_key(a) if a_key is None else a_key
        count = _upper_ends(a_key, out_shape[0], b) - first
    else:
        count = a_ptr[b.rows + 1] - first
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
    fused = semiring.slot_reduce is not None
    if not fused:
        vals = semiring.multiply(a.vals[a_take], b.vals[b_take])
        if semiring.valid_mask is not None and keys.size:
            keep = semiring.valid_mask(vals)
            keys, vals = keys[keep], vals[keep]
    if keys.size == 0:
        return LocalCoo.empty(out_shape, semiring.out_dtype), flops

    slots, out_keys = _output_slots(keys, out_shape[0] * ncols)
    if fused:
        reduced = semiring.slot_reduce(
            a.vals, a_take, b.vals, b_take, slots, out_keys.size
        )
    else:
        starts = _cumsum0(np.bincount(slots, minlength=out_keys.size))[:-1]
        order = np.argsort(slots, kind="stable")
        reduced = semiring.add_reduce(vals[order], starts)
    rows, cols = np.divmod(out_keys, ncols)
    return LocalCoo(out_shape, rows, cols, reduced, order="row"), flops
