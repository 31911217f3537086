"""Local sparse x sparse multiplication over an arbitrary semiring.

The kernel joins on the contraction index and accumulates into output
slots, as CombBLAS's hash / SPA kernel does per column.  With A's entries
sorted by column and B's by row (the distributed layer sorts each block
once; a :class:`LocalCoo` remembers its order), :func:`expand_join` lays
out all (A-entry, B-entry) pairs per shared key with index arithmetic (no
Python loop over nonzeros).  Each product's fused ``row * ncols + col`` key
is then ranked among the distinct keys -- through a dense presence table
when the block has few cells per product, ``np.unique`` otherwise -- and
that rank is the product's output slot; the products themselves are never
sorted by coordinate.  A semiring with a ``slot_reduce`` (the seed semiring)
reduces straight into the slots; any other forms its products with
``multiply`` and combines them with the segmented ``add_reduce`` behind one
stable argsort of the slot ids.

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


def _ragged_arange(firsts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(f, f + c) for f, c in zip(firsts, counts)])``."""
    offsets = _cumsum0(counts)
    out = np.arange(offsets[-1], dtype=np.int64)
    out -= np.repeat(offsets[:-1] - firsts, counts)
    return out


def expand_join(
    a_keys_sorted: np.ndarray, b_keys_sorted: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs ``(ia, ib)`` with ``a_keys[ia] == b_keys[ib]``.

    Both key arrays must be sorted ascending.  The expansion is fully
    vectorized: for a key shared by ``ca`` A-entries and ``cb`` B-entries it
    emits the ``ca * cb`` cross product, in deterministic (A-major) order.
    """
    # B's key runs from its boundaries, A's by bisection: in a phased SUMMA
    # B is the thin column sub-panel, and A is never walked in full
    starts_b = segment_starts(b_keys_sorted)
    keys = b_keys_sorted[starts_b]
    bounds_b = np.append(starts_b, b_keys_sorted.size)
    cb = bounds_b[1:] - starts_b
    starts_a = np.searchsorted(a_keys_sorted, keys, side="left")
    ca = np.searchsorted(a_keys_sorted, keys, side="right") - starts_a
    # per matched A entry, the run of B entries sharing its key (a key A
    # lacks has ca == 0 and repeats away); np.repeat then lays the cross
    # products out A-major with no division
    a_idx = _ragged_arange(starts_a, ca)
    run = np.repeat(cb, ca)
    a_take = np.repeat(a_idx, run)
    b_take = _ragged_arange(np.repeat(starts_b, ca), run)
    return a_take, b_take


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

    a = a.sorted_by("col")
    b = b.sorted_by("row")
    a_take, b_take = expand_join(a.cols, b.rows)
    flops = int(a_take.size)
    ncols = out_shape[1]
    # one fused row-major key per product: its rank among the distinct keys
    # is the product's output slot
    keys = a.rows[a_take] * ncols
    keys += b.cols[b_take]
    if exclude_diagonal:
        keep = a.rows[a_take] != b.cols[b_take]
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
