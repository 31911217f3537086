"""Local sparse x sparse multiplication over an arbitrary semiring.

The kernel is a vectorized sort-merge join on the contraction index: sort A's
entries by column and B's entries by row, intersect the key sets, expand all
(A-entry, B-entry) pairs per shared key with index arithmetic (no Python loop
over nonzeros), apply ``semiring.multiply`` to the aligned payload arrays,
then combine duplicates per output coordinate with the segmented
``semiring.add_reduce``.

Returns both the product and the number of elementary products formed (the
"flops" of the multiplication) so the distributed layer can charge modeled
compute time.
"""

from __future__ import annotations

import numpy as np

from ..errors import SparseFormatError
from ..util import cumsum0 as _cumsum0, sorted_lookup
from .coo import LocalCoo, segment_starts
from .semiring import Semiring

__all__ = ["spgemm_local", "spgemm_symbolic", "expand_join"]


def expand_join(
    a_keys_sorted: np.ndarray, b_keys_sorted: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs ``(ia, ib)`` with ``a_keys[ia] == b_keys[ib]``.

    Both key arrays must be sorted ascending.  The expansion is fully
    vectorized: for a key shared by ``ca`` A-entries and ``cb`` B-entries it
    emits the ``ca * cb`` cross product, in deterministic (A-major) order.
    """
    ka, starts_a = np.unique(a_keys_sorted, return_index=True)
    kb, starts_b = np.unique(b_keys_sorted, return_index=True)
    counts_a = np.diff(np.append(starts_a, a_keys_sorted.size))
    counts_b = np.diff(np.append(starts_b, b_keys_sorted.size))

    common, ia, ib = np.intersect1d(ka, kb, assume_unique=True, return_indices=True)
    if common.size == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z.copy()

    ca = counts_a[ia]
    cb = counts_b[ib]
    sa = starts_a[ia]
    sb = starts_b[ib]

    pair_counts = ca * cb
    offsets = _cumsum0(pair_counts)
    total = int(offsets[-1])
    key_of_pair = np.repeat(np.arange(common.size, dtype=np.int64), pair_counts)
    within = np.arange(total, dtype=np.int64) - offsets[key_of_pair]
    cb_of_pair = cb[key_of_pair]
    a_take = sa[key_of_pair] + within // cb_of_pair
    b_take = sb[key_of_pair] + within % cb_of_pair
    return a_take, b_take


def spgemm_symbolic(a: LocalCoo, b: LocalCoo) -> tuple[np.ndarray, np.ndarray]:
    """Symbolic SpGEMM: per-output-column flop and nnz upper bounds.

    The structural half of the multiplication only -- no payloads are
    formed, no join is expanded.  For ``C = A . B`` this returns two
    ``int64`` arrays of length ``b.shape[1]``:

    * ``flops[c]``: the exact number of elementary products landing in
      output column ``c`` (the sum over B entries ``(k, c)`` of the number
      of A entries in column ``k``);
    * ``nnz_ub[c]``: an upper bound on the nonzeros of output column ``c``
      after the semiring reduction, ``min(flops[c], a.shape[0])``.

    ``flops.sum()`` equals the ``flops`` count :func:`spgemm_local` reports
    for the same operands.  The distributed layer's phase planner sums
    these per-column bounds over SUMMA stages to size column phases
    against a :class:`~repro.mpi.memory.MemoryBudget` without ever
    materializing a partial product.
    """
    if a.shape[1] != b.shape[0]:
        raise SparseFormatError(
            f"inner dimensions disagree: {a.shape} x {b.shape}"
        )
    ncols = b.shape[1]
    flops = np.zeros(ncols, dtype=np.int64)
    if a.nnz == 0 or b.nnz == 0:
        return flops, flops.copy()
    # multiplicity of each contraction key (A column), then the expansion
    # factor of every B entry is the multiplicity of its row key
    a_keys, a_counts = np.unique(a.cols, return_counts=True)
    found, pos = sorted_lookup(a_keys, b.rows)
    per_entry = np.where(found, a_counts[pos], 0)
    np.add.at(flops, b.cols, per_entry)
    nnz_ub = np.minimum(flops, int(a.shape[0]))
    return flops, nnz_ub


def spgemm_local(
    a: LocalCoo,
    b: LocalCoo,
    semiring: Semiring,
    exclude_diagonal: bool = False,
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

    a_sorted = a.sorted_by("col")
    b_sorted = b.sorted_by("row")
    a_take, b_take = expand_join(a_sorted.cols, b_sorted.rows)
    flops = int(a_take.size)
    if flops == 0:
        return LocalCoo.empty(out_shape, semiring.out_dtype), 0

    rows = a_sorted.rows[a_take]
    cols = b_sorted.cols[b_take]
    vals = semiring.multiply(a_sorted.vals[a_take], b_sorted.vals[b_take])

    if exclude_diagonal:
        keep = rows != cols
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    if semiring.valid_mask is not None and rows.size:
        keep = semiring.valid_mask(vals)
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    if rows.size == 0:
        return LocalCoo.empty(out_shape, semiring.out_dtype), flops

    # combine duplicates per output coordinate
    perm = np.lexsort((cols, rows))
    rows, cols, vals = rows[perm], cols[perm], vals[perm]
    keys = rows * out_shape[1] + cols
    starts = segment_starts(keys)
    reduced = semiring.add_reduce(vals, starts)
    return LocalCoo(out_shape, rows[starts], cols[starts], reduced), flops
