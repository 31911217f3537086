"""Batched x-drop alignment: the hot path vectorized across candidate pairs.

Pairwise alignment dominates end-to-end runtime (§5 of the paper, and
diBELLA before it), yet the scalar :func:`~repro.align.xdrop.xdrop_extend`
pays full Python-call overhead per candidate pair.  This module runs the
whole seed-and-extend pipeline over *arrays* of pairs at once:

* **Gather** -- both sequences of every pair are pulled out of one packed
  code buffer into 2D matrices of outward-facing slices.  Reverse
  complement for opposite-strand pairs is folded into the gather itself
  (a descending index stride into a complemented pool half), so no
  per-pair ``revcomp`` copies are ever materialized.
* **Gapless kernel** (``mode="diag"``) -- per-row cumulative score, running
  max, first-drop cutoff and masked argmax over the whole batch: the exact
  computation of :func:`~repro.align.xdrop.extend_gapless` lifted to 2D.
  The scan runs over column *stripes* with row compaction (a pair stops
  costing work the moment its x-drop fires) and reuses a persistent
  workspace so no stripe-sized temporaries are allocated per batch.
* **Banded DP kernel** (``mode="dp"``) -- a wavefront formulation of
  :func:`~repro.align.xdrop.extend_banded`: all pairs advance their
  anti-diagonals in lockstep over int32 parity planes that hold only the
  cells of the antidiagonal's parity.  A pair retires after two
  consecutive dead antidiagonals (the x-drop rule), and retired pairs are
  compacted out of the working set whenever the live count halves, so
  the pairs that terminate early stop costing work.

Both kernels are **bit-identical** to the scalar reference (enforced by
the property tests of ``tests/test_align_batch.py``).  The scalar functions
remain the readable specification; this module is the throughput path used
by the ``Alignment`` stage.

:func:`classify_overlaps` is the array analogue of
:func:`~repro.align.classify.classify_overlap`: dovetail / contained /
internal classification via boolean masks, emitting both directed edge
payloads as plain field arrays ready for one structured fill.
"""

from __future__ import annotations

import os
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import AlignmentError
from ..kernels import native_kernels, resolve_kernel_tier
from ..seq.readstore import PackedReads
from .xdrop import XdropResult

__all__ = [
    "BatchXdropResult",
    "EdgeFieldArrays",
    "BatchOverlapResult",
    "KIND_DOVETAIL",
    "KIND_CONTAINED_A",
    "KIND_CONTAINED_B",
    "KIND_INTERNAL",
    "pack_codes",
    "complemented_pool",
    "batch_xdrop_extend",
    "iter_classified_chunks",
    "classify_overlaps",
    "release_scratch",
]

#: Masked-score sentinel of the gapless kernel's int64 path.
_NEG = np.int64(-(1 << 40))

#: Overlap kind codes of :func:`classify_overlaps` (array analogue of
#: :class:`~repro.align.classify.OverlapClass`).
KIND_DOVETAIL = 0
KIND_CONTAINED_A = 1
KIND_CONTAINED_B = 2
KIND_INTERNAL = 3


@dataclass(frozen=True)
class BatchXdropResult:
    """Per-pair alignment endpoints in the *oriented* coordinate frames.

    All fields are parallel ``int64`` arrays of length ``npairs``; entry
    ``p`` carries exactly what the scalar :class:`XdropResult` would for
    pair ``p`` (``b``-side coordinates refer to the reverse complement of
    the stored read for opposite-strand pairs).
    """

    score: np.ndarray
    a_begin: np.ndarray
    a_end: np.ndarray
    b_begin: np.ndarray
    b_end: np.ndarray

    @property
    def a_span(self) -> np.ndarray:
        return self.a_end - self.a_begin

    @property
    def b_span(self) -> np.ndarray:
        return self.b_end - self.b_begin

    def __len__(self) -> int:
        return int(self.score.size)

    def item(self, p: int) -> XdropResult:
        """Scalar view of pair ``p`` (testing / interop convenience)."""
        return XdropResult(
            score=int(self.score[p]),
            a_begin=int(self.a_begin[p]),
            a_end=int(self.a_end[p]),
            b_begin=int(self.b_begin[p]),
            b_end=int(self.b_end[p]),
        )


def complemented_pool(buffer: np.ndarray) -> np.ndarray:
    """The doubled gather pool ``[buffer, 3 - buffer]`` for strand folding.

    Opposite-strand pairs gather ``b`` from the complemented second half
    (their descending index stride already handles the reversal).  Chunked
    callers should build this **once per packed buffer** and pass it as
    ``comp_pool`` to every :func:`batch_xdrop_extend` call on that buffer;
    rebuilding it per chunk would re-complement the whole pool each time.
    """
    buffer = np.asarray(buffer, dtype=np.uint8)
    pool = np.empty(2 * buffer.size, dtype=np.uint8)
    pool[: buffer.size] = buffer
    np.subtract(np.uint8(3), buffer, out=pool[buffer.size :])
    return pool


def pack_codes(seqs: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate code arrays into a ``(buffer, offsets)`` sequence pool."""
    packed = PackedReads.from_codes(seqs)
    return packed.buffer, packed.offsets


def _gather(
    buffer: np.ndarray,
    base: np.ndarray,
    sign: np.ndarray,
    width: int,
    comp: np.ndarray,
) -> np.ndarray:
    """Gather ``buffer[base + sign*t]`` for ``t < width`` into a 2D matrix.

    ``comp`` rows are complemented (``3 - code``) during the gather -- the
    batch reverse-complement.  Out-of-range positions are clamped; their
    codes are garbage but every kernel masks them by per-pair length.
    """
    t = np.arange(width, dtype=np.int64)
    idx = base[:, None] + sign[:, None] * t[None, :]
    np.clip(idx, 0, max(buffer.size - 1, 0), out=idx)
    codes = buffer[idx]
    return np.where(comp[:, None], 3 - codes, codes)


#: Columns per stripe of the gapless kernel.  Junk extensions fall below
#: the x-drop within roughly ``2x`` columns, so one stripe retires them;
#: true overlaps stream through a few stripes of dense NumPy work.
GAPLESS_STRIPE = 128

# Kernel workspace, reused across calls: freshly allocated NumPy
# temporaries of stripe size would be page-faulted in on every batch,
# which is a large fraction of the kernel cost.  Keyed by role; grown
# geometrically and re-typed on demand.  Sized by pairs-per-batch times
# stripe width, so the caller's batch size bounds the footprint.
# Per-executor-worker: thread-local (callers aligning from several
# threads each need their own workspace for the gapless kernel to stay
# reentrant) AND pid-validated -- a forked
# process-pool worker inherits the parent's thread-local table, and
# growing those pages would copy-on-write the parent's hot workspace,
# so the table resets on first touch under a new pid.  (Spawned workers
# start clean; the check makes fork-start pools safe too.)
_SCRATCH = threading.local()


def _scratch(key: str, dtype: np.dtype, rows: int, cols: int) -> np.ndarray:
    if getattr(_SCRATCH, "pid", None) != os.getpid():
        _SCRATCH.pid = os.getpid()
        _SCRATCH.arrays = {}
    table = _SCRATCH.arrays
    need = rows * cols
    arr = table.get(key)
    if arr is None or arr.dtype != dtype or arr.size < need:
        arr = np.empty(max(need + (need >> 2), 1), dtype=dtype)
        table[key] = arr
    return arr[:need].reshape(rows, cols)


def release_scratch() -> None:
    """Drop this worker's kernel workspaces (frees the pages; the next
    batch reallocates lazily).  Long-lived pool workers between unrelated
    jobs can call this to return memory instead of holding peak scratch."""
    _SCRATCH.pid = None
    _SCRATCH.arrays = {}


def _gapless_side_batch(
    buffer: np.ndarray,
    base_a: np.ndarray,
    sign_a: np.ndarray,
    base_b: np.ndarray,
    sign_b: np.ndarray,
    comp: np.ndarray,
    n: np.ndarray,
    x: int,
    match: int,
    mismatch: int,
    stripe: int = GAPLESS_STRIPE,
    comp_pool: np.ndarray | None = None,
    kernel_tier: str = "numpy",
) -> tuple[np.ndarray, np.ndarray]:
    """Batch analogue of ``_gapless_one_side``: (steps_taken, score_gained).

    Pair ``p``'s outward-facing slices are ``buffer[base + sign*t]`` for
    ``t < n[p]`` (``comp`` rows complemented -- the batch revcomp).  The
    cumsum / running-max / first-drop / masked-argmax pipeline runs over
    column *stripes* with row compaction: a pair leaves the active set the
    moment its drop fires, so dead extensions cost no further columns.
    Positions past ``n`` take a step of ``-(x + 1)``, which fires the drop
    at ``n`` at the latest -- making the striped scan agree with the
    scalar's length-``n`` cumsum everywhere the scalar reads it.

    ``kernel_tier="native"`` routes the scan loop itself through the C
    extension (bit-identical outputs); the strand folding above stays
    here either way.
    """
    npairs = n.size
    steps_out = np.zeros(npairs, dtype=np.int64)
    score_out = np.zeros(npairs, dtype=np.int64)
    total = int(n.max()) if npairs else 0
    if total == 0:
        return steps_out, score_out
    # batch reverse-complement, gather edition: b reads on the opposite
    # strand gather from the complemented second half of a doubled pool
    # (their descending index stride already handles the reversal), so the
    # kernel needs no per-row complement branch at all
    if comp.any():
        pool = comp_pool if comp_pool is not None else complemented_pool(buffer)
        base_b = base_b + np.where(comp, np.int64(buffer.size), np.int64(0))
    else:
        pool = buffer
    if kernel_tier == "native":
        return native_kernels().gapless_scan(
            buffer, pool, base_a, sign_a, base_b, sign_b, n,
            int(x), int(match), int(mismatch),
        )
    # int32 halves the kernel's memory traffic; fall back to int64 when
    # indices or worst-case |cumsum| could overflow
    idtype = (
        np.int32
        if 2 * int(buffer.size) + total < (1 << 31) - 1
        else np.int64
    )
    sdtype = (
        np.int32
        if (total + 1) * max(abs(match), abs(mismatch), x + 1) < (1 << 30)
        else np.int64
    )
    neg = sdtype(-(1 << 30)) if sdtype is np.int32 else _NEG
    match_s, mis_s, pad_s = sdtype(match), sdtype(mismatch), sdtype(-(x + 1))
    # int8 step arithmetic replaces np.where (which pays a large scalar-
    # broadcast penalty); only exotic scoring falls back to the where path
    int8_steps = max(abs(match), abs(mismatch), x + 1) <= 63
    base_a = base_a.astype(idtype, copy=False)
    base_b = base_b.astype(idtype, copy=False)
    sign_a = sign_a.astype(idtype, copy=False)
    sign_b = sign_b.astype(idtype, copy=False)
    act = np.flatnonzero(n > 0)
    # per-row carry across stripes: cumsum at stripe boundary, running max
    # of the cumsum and the first column index achieving it
    carry_sum = np.zeros(npairs, dtype=sdtype)
    best_val = np.full(npairs, neg, dtype=sdtype)
    best_idx = np.zeros(npairs, dtype=np.int64)
    # a trailing stripe up to half a stripe long is merged into its
    # predecessor, hence the 3/2 cap
    cap_w = min(total, stripe + stripe // 2)
    col0 = 0
    while act.size and col0 < total:
        width = total - col0
        if width > cap_w:
            width = stripe
        r = int(act.size)
        t = np.arange(col0, col0 + width, dtype=idtype)
        nact = n[act]
        idx_a = _scratch("idx_a", idtype, r, width)
        idx_b = _scratch("idx_b", idtype, r, width)
        np.multiply(sign_a[act, None], t[None, :], out=idx_a)
        idx_a += base_a[act, None]
        np.multiply(sign_b[act, None], t[None, :], out=idx_b)
        idx_b += base_b[act, None]
        codes_a = _scratch("codes_a", np.uint8, r, width)
        codes_b = _scratch("codes_b", np.uint8, r, width)
        # mode="clip" folds the bounds clamp into the gather; clamped
        # positions only occur past n, where the poisoned step takes over
        np.take(buffer, idx_a, out=codes_a, mode="clip")
        np.take(pool, idx_b, out=codes_b, mode="clip")
        eq = _scratch("eq", np.bool_, r, width)
        np.equal(codes_a, codes_b, out=eq)
        # a stripe fully inside every active slice needs no padding; only
        # boundary stripes pay for the mask
        inside = col0 + width <= int(nact.min())
        step = _scratch("step", np.int8, r, width)
        if inside:
            if int8_steps:
                np.multiply(eq.view(np.int8), np.int8(match - mismatch), out=step)
                step += np.int8(mismatch)
            else:
                step = np.where(eq, match_s, mis_s)
        else:
            # positions past n take a poisoned step so the drop fires there
            # at the latest (never later than the scalar's slice end)
            valid = _scratch("valid", np.bool_, r, width)
            np.less(t[None, :], nact[:, None], out=valid)
            if int8_steps:
                np.logical_and(eq, valid, out=eq)
                np.multiply(eq.view(np.int8), np.int8(match - mismatch), out=step)
                step += np.int8(mismatch)
                np.logical_not(valid, out=valid)
                pad8 = _scratch("pad", np.int8, r, width)
                np.multiply(
                    valid.view(np.int8), np.int8(-(x + 1) - mismatch), out=pad8
                )
                step += pad8
            else:
                step = np.where(valid, np.where(eq, match_s, mis_s), pad_s)
        score = _scratch("score", sdtype, r, width)
        acc = _scratch("acc", sdtype, r, width)
        np.cumsum(step, axis=1, dtype=sdtype, out=score)
        if col0:
            score += carry_sum[act, None]
        np.maximum.accumulate(score, axis=1, out=acc)
        if col0:
            # fold the carried best in; safe because a window max that does
            # not exceed the carry never updates best_* below
            np.maximum(acc, best_val[act, None], out=acc)
        drop = _scratch("drop", np.bool_, r, width)
        diff = _scratch("diff", sdtype, r, width)
        np.subtract(acc, score, out=diff)
        np.greater(diff, x, out=drop)
        fired = drop.any(axis=1)
        limit = np.where(fired, drop.argmax(axis=1), width)
        # max over the pre-drop window, read off the running max at column
        # limit-1 (acc is non-decreasing, so later columns never undercut)
        smax = acc[:, width - 1].copy()
        fr = np.flatnonzero(fired)
        if fr.size:
            lim_f = limit[fr]
            pos = lim_f > 0
            smax[fr[pos]] = acc[fr[pos], lim_f[pos] - 1]
            smax[fr[~pos]] = neg
        better = smax > best_val[act]
        if better.any():
            rows = np.flatnonzero(better)
            # first column reaching the window max: count the strictly
            # smaller running-max prefix (acc rows are non-decreasing)
            cnt = np.count_nonzero(acc[rows] < smax[rows, None], axis=1)
            upd = act[rows]
            best_val[upd] = smax[rows]
            best_idx[upd] = col0 + cnt
        # rows whose drop fired are finished; the rest carry into the next
        # stripe (an unfired row is still entirely inside its slice)
        carry_sum[act] = score[:, width - 1]
        if fr.size:
            keep = np.flatnonzero(~fired)
            # compact the scratch rows so stripes stay contiguous
            act = act[keep]
        col0 += width
    good = best_val > 0
    steps_out[good] = best_idx[good] + 1
    score_out[good] = best_val[good]
    return steps_out, score_out


def _banded_side_batch(
    amat: np.ndarray,
    bmat: np.ndarray,
    na: np.ndarray,
    nb: np.ndarray,
    x: int,
    match: int,
    mismatch: int,
    gap: int,
    band: int,
    kernel_tier: str = "numpy",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch analogue of ``_banded_one_side``: (a_steps, b_steps, score).

    One compacting wavefront: each iteration advances antidiagonal ``s``
    of every lane (pair) still in the working set, position-major so
    every operation is one contiguous slab of ``cells x lanes``.

    * **Parity planes.**  Antidiagonal ``s`` only has cells on every other
      band slot (``k = d + band`` with ``k = s + band (mod 2)``), so the
      slots live in two planes, one per parity, each with an always-dead
      guard row per side.  ``s`` overwrites its own plane -- which held
      ``s - 2``, the diagonal move's source -- and reads its gap moves
      as two shifted slices of the other plane (``s - 1``); no cell of
      the wrong parity is ever computed.
    * **Codes gathered once.**  ``a`` is laid out forward and ``b``
      reversed, so the cells of ``s`` read ``a[i - 1]`` and ``b[j - 1]``
      as two contiguous row ranges.  A penalty matrix on the same rows
      pushes cells outside a lane's sequences (or before their starts)
      below every threshold, which replaces the per-cell validity mask.
    * **Offset, scaled int32 scores.**  A cell stores ``off + score *
      2**low`` and a dead cell is 0, so the x-drop is one compare and one
      multiply.  A descending slot ramp in the low bits makes the round's
      one reduction yield both the round max and its first-argmax slot.
      The dtype is int32 unless ``(na + nb)·max|score| + x`` could
      overflow it (the rule of :func:`_gapless_side_batch`); then int64.
    * **Termination.**  A lane is live while the round max clears
      ``best - x`` on ``s`` or ``s - 1``: it ends after two consecutive
      dead antidiagonals, exactly like the scalar oracle.  Once the live
      count halves, retired lanes are compacted out of every matrix.

    ``kernel_tier="native"`` runs the per-pair antidiagonal recurrence in
    the C extension instead (bit-identical outputs).
    """
    if kernel_tier == "native":
        return native_kernels().banded_batch(
            np.ascontiguousarray(amat),
            np.ascontiguousarray(bmat),
            na, nb, int(x), int(match), int(mismatch), int(gap), int(band),
        )
    npairs = na.size
    best_i = np.zeros(npairs, dtype=np.int64)
    best_j = np.zeros(npairs, dtype=np.int64)
    best_score = np.zeros(npairs, dtype=np.int64)
    lanes = np.flatnonzero((na > 0) & (nb > 0))
    if not lanes.size:
        return best_i, best_j, best_score
    na, nb = na[lanes], nb[lanes]
    # the last antidiagonal with a cell inside both sequences and the band
    max_anti = int(np.minimum(na + nb, 2 * np.minimum(na, nb) + band).max())
    low = int(band + 1).bit_length()
    top = max(abs(match), abs(mismatch), abs(gap))
    # scores stay within +-max_anti * top, so a wider x-drop never fires
    x = min(x, 2 * max_anti * top + 1)
    # with off = 2**bits a cell inside the sequences lies in (0, 2 * off),
    # a dead one is 0 and a penalized one stays above -5 * off
    bits = 28 if ((max_anti + 4) * top + x) << low < 1 << 28 else 60
    dtype = np.int32 if bits == 28 else np.int64
    off, pen = 1 << bits, dtype(-(1 << (bits + 1)))

    # position-major codes: row pad + t holds a[t], row bo + pad + bcols
    # - 1 - t holds b[t]; every other row is outside the sequences
    pad = band + 2
    acols, bcols = amat.shape[1], bmat.shape[1]
    bo = acols + 2 * pad
    codes = np.zeros((bo + bcols + 2 * pad, lanes.size), dtype=np.uint8)
    codes[pad : pad + acols] = amat[lanes].T
    codes[bo + pad : bo + pad + bcols] = bmat[lanes, ::-1].T
    # penalties on the same rows: the mismatch score (folded in here, see
    # gap_s below) where cell i lies inside a, `pen` outside a or b
    row_i = np.arange(bo)[:, None] - pad + 1
    row_j = bo + pad + bcols - np.arange(bo, codes.shape[0])[:, None]
    pens = np.concatenate(
        [
            np.where((row_i < 0) | (row_i > na), pen, dtype(mismatch << low)),
            np.where((row_j < 0) | (row_j > nb), pen, dtype(0)),
        ]
    )
    # parity plane c = rows base[c] .. base[c] + cnt[c] + 1 of `planes`;
    # slot k = c + 2m sits at row base[c] + 1 + m, guards either side
    cnt = (band + 1, band)
    base = (0, band + 3)
    planes = np.zeros((2 * band + 5, lanes.size), dtype=dtype)
    planes[base[band & 1] + 1 + band // 2] = off  # the empty extension
    ramp = [
        np.arange((1 << low) - 1, (1 << low) - 1 - n, -1, dtype=dtype)[:, None]
        for n in cnt
    ]
    high = dtype(-(1 << low))
    gap_s = dtype((gap - mismatch) << low)
    sub_s = dtype((match - mismatch) << low)
    x_s = x << low

    best = np.full(lanes.size, off, dtype=dtype)
    best_key = np.full(lanes.size, (1 << low) - 1 - band // 2, dtype=dtype)
    best_s = np.zeros(lanes.size, dtype=np.int64)
    alive_prev = np.ones(lanes.size, dtype=bool)

    def retire(rows):
        s = best_s[rows]
        m = (1 << low) - 1 - (best_key[rows] & ((1 << low) - 1))
        i = ((s + ((s + band) & 1) - band) >> 1) + m
        best_i[lanes[rows]] = i
        best_j[lanes[rows]] = s - i
        best_score[lanes[rows]] = (best[rows] - off) >> low

    work = np.empty((2, band + 1, lanes.size), dtype=dtype)
    hit = np.empty((band + 1, lanes.size), dtype=bool)
    for s in range(1, max_anti + 1):
        c = (s + band) & 1
        n = cnt[c]
        i0 = (s + c - band) >> 1  # i of the plane's first cell
        ra = pad + i0 - 1
        rb = bo + pad + bcols - (s - i0)
        cur = planes[base[c] + 1 : base[c] + 1 + n]  # still s - 2 here
        side = base[1 - c] + c
        g, d, h = work[0, :n], work[1, :n], hit[:n]
        # gap moves: the better neighbour slot (k -+ 1) on s - 1
        np.maximum(planes[side : side + n], planes[side + 1 : side + 1 + n], out=g)
        g += gap_s
        # diagonal move: the same slot on s - 2, plus match or mismatch
        np.equal(codes[ra : ra + n], codes[rb : rb + n], out=h)
        np.multiply(h, sub_s, out=d)
        d += cur
        np.maximum(g, d, out=cur)
        cur += pens[ra : ra + n]
        cur += pens[rb : rb + n]
        # round max and its first slot in one reduction
        np.add(cur, ramp[c], out=g)
        key = np.maximum.reduce(g, axis=0, initial=0)  # band 0: n may be 0
        rmax = key & high
        improve = rmax > best
        np.copyto(best_key, key, where=improve)
        np.copyto(best_s, s, where=improve)
        np.maximum(best, rmax, out=best)
        # x-drop: kill cells too far below the (freshly updated) best
        thr = best - x_s
        np.greater_equal(cur, thr, out=h)
        np.multiply(cur, h, out=cur)
        alive = rmax >= thr
        live = alive | alive_prev
        alive_prev = alive
        nlive = int(np.count_nonzero(live))
        if nlive == 0:
            break
        if 2 * nlive <= lanes.size:
            retire(np.flatnonzero(~live))
            keep = np.flatnonzero(live)
            planes, codes, pens = planes[:, keep], codes[:, keep], pens[:, keep]
            best, best_key, best_s = best[keep], best_key[keep], best_s[keep]
            alive_prev, lanes = alive_prev[keep], lanes[keep]
            work = np.empty((2, band + 1, keep.size), dtype=dtype)
            hit = np.empty((band + 1, keep.size), dtype=bool)
    retire(np.arange(lanes.size))
    return best_i, best_j, best_score


def _oriented_side_geometry(
    a_off: np.ndarray,
    b_off: np.ndarray,
    seed_a: np.ndarray,
    seed_b: np.ndarray,
    alen: np.ndarray,
    blen: np.ndarray,
    same: np.ndarray,
    seed_len: int,
):
    """Bases/strides of the four outward-facing slices plus their lengths.

    ``b``'s oriented position ``u`` maps to stored position ``u`` on the
    same strand and ``blen - 1 - u`` on the opposite strand; substituting
    the right/left ray ``u = seed_b +/- (seed_len | 1) ...`` gives one
    affine ``base + sign*t`` gather per side.
    """
    one = np.ones_like(seed_a)
    a_right = (a_off + seed_a + seed_len, one, alen - seed_a - seed_len)
    a_left = (a_off + seed_a - 1, -one, seed_a)
    b_right = (
        np.where(same, b_off + seed_b + seed_len, b_off + blen - 1 - seed_b - seed_len),
        np.where(same, one, -one),
        blen - seed_b - seed_len,
    )
    b_left = (
        np.where(same, b_off + seed_b - 1, b_off + blen - seed_b),
        np.where(same, -one, one),
        seed_b,
    )
    return a_right, a_left, b_right, b_left


def batch_xdrop_extend(
    buffer: np.ndarray,
    offsets: np.ndarray,
    a_idx: np.ndarray,
    b_idx: np.ndarray,
    seed_a: np.ndarray,
    pos_b: np.ndarray,
    same_strand: np.ndarray,
    seed_len: int,
    x: int,
    mode: str = "diag",
    match: int = 1,
    mismatch: int = -1,
    gap: int = -1,
    band: int = 16,
    comp_pool: np.ndarray | None = None,
    kernel_tier: str | None = None,
    span=None,
) -> BatchXdropResult:
    """X-drop extend a whole batch of seeded candidate pairs at once.

    Parameters
    ----------
    buffer, offsets:
        The packed sequence pool (e.g. ``PackedReads.buffer`` /
        ``.offsets``, or the output of :func:`pack_codes`); sequence ``i``
        occupies ``buffer[offsets[i]:offsets[i+1]]``.
    a_idx, b_idx:
        Per-pair pool indices of the two sequences.
    seed_a, pos_b:
        Per-pair seed positions in each read's **stored** orientation (the
        k-mer matrix coordinates).  Unlike the scalar API the engine
        orients ``b`` itself: opposite-strand pairs are extended against
        the reverse complement, with ``pos_b`` mapped to
        ``blen - seed_len - pos_b``.
    same_strand:
        Per-pair boolean strand agreement of the seed.
    mode:
        ``"diag"`` for the gapless kernel, ``"dp"`` for the wavefront
        banded DP (``gap``/``band`` apply to the latter only).
    comp_pool:
        Optional :func:`complemented_pool` of ``buffer``.  Callers that
        chunk one packed buffer over many calls should build it once and
        pass it here so opposite-strand gathers do not re-complement the
        whole pool per chunk.
    kernel_tier:
        ``"numpy"`` | ``"native"`` | ``None`` (resolve via
        :func:`repro.kernels.resolve_kernel_tier`).  Both tiers return
        bit-identical results.
    span:
        Optional span factory (e.g. ``RankContext.span``); when given,
        the kernel call is wrapped in ``span("<tier>:gapless")`` /
        ``span("<tier>:banded")`` so telemetry attributes time per tier.

    Returns
    -------
    BatchXdropResult
        Entry ``p`` is element-wise identical to
        ``xdrop_extend(a, b_oriented, seed_a, oriented_seed_b, ...)``.
    """
    buffer = np.asarray(buffer, dtype=np.uint8)
    offsets = np.asarray(offsets, dtype=np.int64)
    a_idx = np.asarray(a_idx, dtype=np.int64)
    b_idx = np.asarray(b_idx, dtype=np.int64)
    seed_a = np.asarray(seed_a, dtype=np.int64)
    pos_b = np.asarray(pos_b, dtype=np.int64)
    same = np.asarray(same_strand, dtype=bool)
    if mode not in ("diag", "dp"):
        raise AlignmentError(f"unknown alignment mode {mode!r}")
    if comp_pool is not None and comp_pool.size != 2 * buffer.size:
        raise AlignmentError(
            f"comp_pool size {comp_pool.size} does not match doubled "
            f"buffer size {2 * buffer.size}"
        )

    lengths = np.diff(offsets)
    alen = lengths[a_idx]
    blen = lengths[b_idx]
    a_off = offsets[a_idx]
    b_off = offsets[b_idx]
    seed_b = np.where(same, pos_b, blen - seed_len - pos_b)

    bad = ~(
        (seed_a >= 0)
        & (seed_a <= alen - seed_len)
        & (seed_b >= 0)
        & (seed_b <= blen - seed_len)
    )
    if bad.any():
        p = int(np.flatnonzero(bad)[0])
        raise AlignmentError(
            f"seed ({int(seed_a[p])}, {int(seed_b[p])}, len {seed_len}) outside "
            f"sequences of lengths ({int(alen[p])}, {int(blen[p])}) "
            f"for pair {p}"
        )

    npairs = a_idx.size
    if npairs == 0:
        empty = np.empty(0, dtype=np.int64)
        return BatchXdropResult(empty, empty.copy(), empty.copy(), empty.copy(), empty.copy())

    comp = ~same
    no_comp = np.zeros(npairs, dtype=bool)
    a_right, a_left, b_right, b_left = _oriented_side_geometry(
        a_off, b_off, seed_a, seed_b, alen, blen, same, seed_len
    )

    tier = resolve_kernel_tier(kernel_tier)
    if mode == "diag":
        # the two directions are independent extensions: stack them as one
        # 2B-row kernel call (rows retire independently either way)
        with span(f"{tier}:gapless") if span is not None else nullcontext():
            steps, gained = _gapless_side_batch(
                buffer,
                np.concatenate([a_right[0], a_left[0]]),
                np.concatenate([a_right[1], a_left[1]]),
                np.concatenate([b_right[0], b_left[0]]),
                np.concatenate([b_right[1], b_left[1]]),
                np.concatenate([comp, comp]),
                np.concatenate(
                    [np.minimum(a_right[2], b_right[2]), np.minimum(a_left[2], b_left[2])]
                ),
                x,
                match,
                mismatch,
                comp_pool=comp_pool,
                kernel_tier=tier,
            )
        a_steps_r = b_steps_r = steps[:npairs]
        a_steps_l = b_steps_l = steps[npairs:]
        right_score, left_score = gained[:npairs], gained[npairs:]
    else:
        with span(f"{tier}:banded") if span is not None else nullcontext():
            amat_r = _gather(buffer, a_right[0], a_right[1], int(a_right[2].max()), no_comp)
            bmat_r = _gather(buffer, b_right[0], b_right[1], int(b_right[2].max()), comp)
            amat_l = _gather(buffer, a_left[0], a_left[1], int(a_left[2].max()), no_comp)
            bmat_l = _gather(buffer, b_left[0], b_left[1], int(b_left[2].max()), comp)
            a_steps_r, b_steps_r, right_score = _banded_side_batch(
                amat_r, bmat_r, a_right[2], b_right[2], x, match, mismatch, gap, band,
                kernel_tier=tier,
            )
            a_steps_l, b_steps_l, left_score = _banded_side_batch(
                amat_l, bmat_l, a_left[2], b_left[2], x, match, mismatch, gap, band,
                kernel_tier=tier,
            )

    return BatchXdropResult(
        score=seed_len * match + left_score + right_score,
        a_begin=seed_a - a_steps_l,
        a_end=seed_a + seed_len + a_steps_r,
        b_begin=seed_b - b_steps_l,
        b_end=seed_b + seed_len + b_steps_r,
    )


def iter_classified_chunks(
    buffer: np.ndarray,
    offsets: np.ndarray,
    a_idx: np.ndarray,
    b_idx: np.ndarray,
    seed_a: np.ndarray,
    pos_b: np.ndarray,
    same_strand: np.ndarray,
    seed_len: int,
    x: int,
    *,
    mode: str = "diag",
    batch_size: int = 512,
    match: int = 1,
    mismatch: int = -1,
    min_score: int | None = None,
    min_overlap: int = 0,
    end_margin: int = 0,
    kernel_tier: str | None = None,
    span=None,
):
    """Run task arrays through the batch engine in classified chunks.

    The shared chunking pattern of the ``Alignment`` stage and the
    baseline overlap index: build the complemented gather pool once, then
    per ``batch_size`` chunk extend (:func:`batch_xdrop_extend`), gate on
    ``min_score``/``min_overlap``, and classify
    (:func:`classify_overlaps`).  Yields ``(sl, res, cls, kind)`` where
    ``sl`` is the chunk slice into the task arrays and ``kind`` holds the
    per-pair ``KIND_*`` code, or ``-1`` for pairs failing the gates.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.diff(offsets)
    same_strand = np.asarray(same_strand, dtype=bool)
    pool = (
        complemented_pool(buffer)
        if mode == "diag" and not same_strand.all()
        else None
    )
    tier = resolve_kernel_tier(kernel_tier)
    n = int(a_idx.size)
    batch = max(int(batch_size), 1)
    for lo in range(0, n, batch):
        sl = slice(lo, min(lo + batch, n))
        res = batch_xdrop_extend(
            buffer,
            offsets,
            a_idx[sl],
            b_idx[sl],
            seed_a[sl],
            pos_b[sl],
            same_strand[sl],
            seed_len,
            x,
            mode=mode,
            match=match,
            mismatch=mismatch,
            comp_pool=pool,
            kernel_tier=tier,
            span=span,
        )
        keep = np.minimum(res.a_span, res.b_span) >= min_overlap
        if min_score is not None:
            keep &= res.score >= min_score
        cls = classify_overlaps(
            res,
            lengths[a_idx[sl]],
            lengths[b_idx[sl]],
            same_strand[sl],
            end_margin=end_margin,
        )
        kind = np.where(keep, cls.kind, np.int8(-1))
        yield sl, res, cls, kind


@dataclass(frozen=True)
class EdgeFieldArrays:
    """Payloads of one directed edge half for a whole batch (§4.4 fields)."""

    direction: np.ndarray
    suffix: np.ndarray
    pre: np.ndarray
    post: np.ndarray


@dataclass(frozen=True)
class BatchOverlapResult:
    """Classification of a batch of aligned pairs.

    ``kind`` holds the ``KIND_*`` code per pair; ``forward``/``reverse``
    rows are meaningful only where ``kind == KIND_DOVETAIL`` (other rows
    carry whatever the masked arithmetic produced).
    """

    kind: np.ndarray
    score: np.ndarray
    forward: EdgeFieldArrays
    reverse: EdgeFieldArrays


def _edge_field_arrays(
    s_src: np.ndarray, e_src: np.ndarray, len_src: np.ndarray, end_src: np.ndarray,
    s_dst: np.ndarray, e_dst: np.ndarray, len_dst: np.ndarray, end_dst: np.ndarray,
) -> EdgeFieldArrays:
    """Vectorized ``_edge_fields``: (dir, suffix, pre, post) per pair."""
    direction = (end_src << 1) | end_dst
    pre = np.where(end_src == 1, s_src - 1, e_src)
    post = np.where(end_dst == 0, s_dst, e_dst - 1)
    suffix = np.where(end_dst == 0, len_dst - e_dst, s_dst)
    return EdgeFieldArrays(direction=direction, suffix=suffix, pre=pre, post=post)


def classify_overlaps(
    result: BatchXdropResult,
    alen: np.ndarray,
    blen: np.ndarray,
    same_strand: np.ndarray,
    end_margin: int = 0,
) -> BatchOverlapResult:
    """Array analogue of :func:`~repro.align.classify.classify_overlap`.

    Each pair is classified (containment first, then the two dovetail
    geometries, else internal) and both directed edge payloads are derived
    with the same normalization of ``b``'s interval and end bit into stored
    coordinates.  Per-pair results match the scalar classifier exactly.
    """
    alen = np.asarray(alen, dtype=np.int64)
    blen = np.asarray(blen, dtype=np.int64)
    same = np.asarray(same_strand, dtype=bool)
    a0, a1 = result.a_begin, result.a_end
    b0, b1 = result.b_begin, result.b_end
    m = end_margin

    a_hits_start = a0 <= m
    a_hits_end = a1 >= alen - m
    b_hits_start = b0 <= m
    b_hits_end = b1 >= blen - m

    # precedence mirrors the scalar branch order: contained_b, contained_a,
    # suffix-dovetail, prefix-dovetail, internal
    contained_b = b_hits_start & b_hits_end
    contained_a = a_hits_start & a_hits_end & ~contained_b
    dove_suffix = a_hits_end & b_hits_start & ~contained_b & ~contained_a
    dove_prefix = a_hits_start & b_hits_end & ~contained_b & ~contained_a & ~dove_suffix

    kind = np.full(a0.size, KIND_INTERNAL, dtype=np.int8)
    kind[contained_b] = KIND_CONTAINED_B
    kind[contained_a] = KIND_CONTAINED_A
    kind[dove_suffix | dove_prefix] = KIND_DOVETAIL

    end_a = np.where(dove_suffix, np.int64(1), np.int64(0))
    oriented_end_b = 1 - end_a
    sb = np.where(same, b0, blen - b1)
    eb = np.where(same, b1, blen - b0)
    end_b = np.where(same, oriented_end_b, 1 - oriented_end_b)

    fwd = _edge_field_arrays(a0, a1, alen, end_a, sb, eb, blen, end_b)
    rev = _edge_field_arrays(sb, eb, blen, end_b, a0, a1, alen, end_a)
    return BatchOverlapResult(kind=kind, score=result.score, forward=fwd, reverse=rev)
