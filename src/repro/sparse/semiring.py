"""Semiring abstraction: the CombBLAS-style overloaded multiply/add pair.

ELBA "uses a semiring abstraction to overload the classical multiplication
and addition operation as needed" (§4).  A :class:`Semiring` bundles:

* ``multiply(avals, bvals) -> cvals`` -- vectorized over aligned entry pairs
  that share a contraction index (applied during SpGEMM expansion);
* ``add_reduce(cvals_sorted, seg_starts) -> reduced`` -- segmented reduction
  combining all products that land on the same output coordinate.

Both operate on whole NumPy arrays (possibly with structured dtypes), never
per element, so pure-Python SpGEMM stays vectorized.

Stock semirings cover the pipeline's needs: arithmetic (testing vs scipy),
boolean, counting, min-plus, the **seed semiring** of overlap detection
(C = A . A^T) and the **direction-composing min-plus** semiring of transitive
reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coo import segment_order
from .types import DIRMIN_DTYPE, KMER_POS_DTYPE, SEED_DTYPE, SUFFIX_INF

__all__ = [
    "Semiring",
    "arithmetic_semiring",
    "boolean_semiring",
    "count_semiring",
    "minplus_semiring",
    "seed_semiring",
    "dirmin_semiring",
]


@dataclass(frozen=True)
class Semiring:
    """A (multiply, add) pair with an output dtype.

    Attributes
    ----------
    name:
        For diagnostics and benchmark labels.
    out_dtype:
        Payload dtype of the SpGEMM result.
    multiply:
        ``f(avals, bvals) -> cvals`` vectorized elementwise product.
    add_reduce:
        ``f(cvals_sorted_by_coord, seg_starts) -> reduced`` segmented sum.
    valid_mask:
        Optional ``f(cvals) -> bool mask``; products flagged False are
        dropped before reduction (e.g. incompatible bidirected directions).
    slot_reduce:
        Optional ``f(avals, a_take, bvals, b_take, slots, nslots) ->
        reduced``: product ``p`` is ``avals[a_take[p]] x bvals[b_take[p]]``
        and lands in output slot ``slots[p]``.  Must equal ``multiply`` +
        stable sort by slot + ``add_reduce``; a semiring (one without a
        ``valid_mask``) defines it to reduce without materializing or
        sorting the products.
    """

    name: str
    out_dtype: np.dtype
    multiply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    add_reduce: Callable[[np.ndarray, np.ndarray], np.ndarray]
    valid_mask: Callable[[np.ndarray], np.ndarray] | None = None
    slot_reduce: Callable[..., np.ndarray] | None = None


# ---------------------------------------------------------------------------
# numeric semirings (used by tests against scipy and by simple reductions)
# ---------------------------------------------------------------------------

def arithmetic_semiring(dtype=np.float64) -> Semiring:
    """Ordinary (+, *) semiring; SpGEMM equals scipy matmul."""
    dt = np.dtype(dtype)

    def add(vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
        return np.add.reduceat(vals, starts)

    return Semiring(
        name=f"arith[{dt}]",
        out_dtype=dt,
        multiply=lambda a, b: (a * b).astype(dt, copy=False),
        add_reduce=add,
    )


def boolean_semiring() -> Semiring:
    """(or, and) semiring over uint8 0/1 payloads."""

    def add(vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
        return np.bitwise_or.reduceat(vals, starts)

    return Semiring(
        name="boolean",
        out_dtype=np.dtype(np.uint8),
        multiply=lambda a, b: (a & b).astype(np.uint8, copy=False),
        add_reduce=add,
    )


def count_semiring() -> Semiring:
    """Counts contraction-index matches: multiply -> 1, add -> sum.

    ``A . A^T`` over this semiring counts shared k-mers between read pairs.
    """

    def add(vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
        return np.add.reduceat(vals, starts)

    return Semiring(
        name="count",
        out_dtype=np.dtype(np.int64),
        multiply=lambda a, b: np.ones(a.shape[0], dtype=np.int64),
        add_reduce=add,
    )


def minplus_semiring(dtype=np.int64, inf: int | float | None = None) -> Semiring:
    """Tropical (min, +) semiring used for shortest composed overhangs."""
    dt = np.dtype(dtype)
    sentinel = inf if inf is not None else (np.iinfo(dt).max // 2 if dt.kind in "iu" else np.inf)

    def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = a.astype(dt, copy=True)
        out += b.astype(dt, copy=False)
        return out

    def add(vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
        return np.minimum.reduceat(vals, starts)

    return Semiring(
        name=f"minplus[{dt}]",
        out_dtype=dt,
        multiply=mul,
        add_reduce=add,
        valid_mask=lambda v: v < sentinel,
    )


# ---------------------------------------------------------------------------
# pipeline semirings
# ---------------------------------------------------------------------------

def _seed_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.dtype != KMER_POS_DTYPE or b.dtype != KMER_POS_DTYPE:
        raise TypeError("seed semiring expects KMER_POS_DTYPE inputs")
    out = np.empty(a.shape[0], dtype=SEED_DTYPE)
    out["count"] = 1
    out["pos_a"] = a["pos"]
    out["pos_b"] = b["pos"]
    out["same_strand"] = (a["orient"] == b["orient"]).astype(np.int8)
    return out


def _seed_add(vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    counts = np.add.reduceat(vals["count"], starts)
    # pick, per segment, the entry with minimal pos_a (ties: first), by a
    # stable sort on (segment, pos_a)
    out = vals[segment_order(vals["pos_a"], starts)[starts]]
    out["count"] = counts
    return out


def _seed_slot_reduce(avals, a_take, bvals, b_take, slots, nslots) -> np.ndarray:
    # min over (pos_a, product index) finds each slot's minimal pos_a, first
    # product on ties, in one pass and with no seed record formed (widened
    # per A entry first: gathering the packed record's unaligned field per
    # product is ~6x slower)
    packed = (avals["pos"].astype(np.int64) << 32)[a_take]
    packed |= np.arange(packed.size)
    best = np.full(nslots, np.iinfo(np.int64).max)
    np.minimum.at(best, slots, packed)
    winner = best & 0xFFFFFFFF
    out = _seed_mul(avals[a_take[winner]], bvals[b_take[winner]])
    out["count"] = np.bincount(slots, minlength=nslots)
    return out


def seed_semiring() -> Semiring:
    """Overlap-detection semiring for ``C = A . A^T``.

    Inputs are :data:`KMER_POS_DTYPE` entries (k-mer position + orientation
    within each read); each matched k-mer produces one *seed* and the add
    combines duplicates by summing the shared-kmer count and keeping the
    seed with the smallest position in read *a* (a deterministic stand-in
    for BELLA's best-seed choice).
    """
    return Semiring(
        name="seed",
        out_dtype=SEED_DTYPE,
        multiply=_seed_mul,
        add_reduce=_seed_add,
        slot_reduce=_seed_slot_reduce,
    )


def _dirmin_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d1 = a["dir"].astype(np.int8)
    d2 = b["dir"].astype(np.int8)
    # bit layout: bit1 = suffix-of-source consumed, bit0 = suffix-of-dest
    mid_in = d1 & 1          # orientation of the k end of edge 1
    mid_out = (d2 >> 1) & 1  # orientation of the k end of edge 2
    valid = mid_in != mid_out
    composed_dir = ((d1 >> 1) << 1) | (d2 & 1)
    total = a["suffix"].astype(np.int64) + b["suffix"].astype(np.int64)
    total = np.minimum(total, int(SUFFIX_INF)).astype(np.int32)
    out = np.empty(a.shape[0], dtype=DIRMIN_DTYPE)
    out["minsuf"][:] = SUFFIX_INF
    rows = np.flatnonzero(valid)
    out["minsuf"][rows, composed_dir[valid]] = total[valid]
    return out


def _dirmin_add(vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    out = np.empty(starts.size, dtype=DIRMIN_DTYPE)
    for d in range(4):
        out["minsuf"][:, d] = np.minimum.reduceat(vals["minsuf"][:, d], starts)
    return out


def _dirmin_valid(vals: np.ndarray) -> np.ndarray:
    return (vals["minsuf"] < SUFFIX_INF).any(axis=1)


def dirmin_semiring() -> Semiring:
    """Direction-composing min-plus semiring for transitive reduction.

    Inputs are string-graph edges (:data:`~repro.sparse.types.OVERLAP_DTYPE`).
    A two-hop path ``i -> k -> j`` is a *valid walk* iff the head bit at the
    ``k`` end of the first edge differs from the tail bit at the ``k`` end of
    the second (enter through one end, leave through the other, §2).  The
    product records ``suffix(i,k) + suffix(k,j)`` under the composed
    direction ``(tail_bit(e1), head_bit(e2))``; invalid walks record nothing.
    The add keeps, per output coordinate, the *minimum* composed suffix for
    each of the four directions -- exactly what the transitive-edge test
    needs to compare against ``suffix(i,j) + fuzz``.
    """
    return Semiring(
        name="dirmin",
        out_dtype=DIRMIN_DTYPE,
        multiply=_dirmin_mul,
        add_reduce=_dirmin_add,
        valid_mask=_dirmin_valid,
    )
