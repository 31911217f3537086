"""Batched x-drop alignment: the hot path vectorized across candidate pairs.

Pairwise alignment dominates end-to-end runtime (§5 of the paper, and
diBELLA before it), yet the scalar :func:`~repro.align.xdrop.xdrop_extend`
pays full Python-call overhead per candidate pair.  This module runs the
whole seed-and-extend pipeline over *arrays* of pairs at once:

* **Windows** -- both sequences of every pair are read as forward
  windows of one :func:`complemented_pool` of the packed code buffer:
  reverse complement for opposite-strand pairs is its complemented half,
  and a slice read backwards is a forward window of its reversed copy, so
  no per-pair ``revcomp`` copy or index matrix is ever materialized.
* **Gapless kernel** (``mode="diag"``) -- the exact computation of
  :func:`~repro.align.xdrop.extend_gapless`, evaluated only where the score
  can turn: at the *events* (the lower-scoring step's positions, usually
  the mismatches) plus one terminal event at the slice end.  Between two
  events the score climbs, so the running max, the first drop and the
  argmax are all read off the events; rows are bucketed by slice length
  and gathered as windows of the pool, so the kernel touches each cell
  for one compare and one ``flatnonzero``.
* **Banded DP kernel** (``mode="dp"``) -- a wavefront formulation of
  :func:`~repro.align.xdrop.extend_banded`, one side of the seed at a
  time: all pairs advance their anti-diagonals in lockstep over parity
  planes that hold only the cells of the antidiagonal's parity, in the
  narrowest score dtype the call's inputs prove safe (int16 for the
  shipped scores and read lengths), reading a uint8 code matrix copied
  from the pool's windows whose rows past a pair's sequence are marked
  (about 1 byte per slice cell in all).  A pair retires after two
  consecutive dead antidiagonals (the x-drop rule); liveness is tested
  every few antidiagonals, and retired pairs are compacted out of the
  working set whenever the live count halves, so the pairs that
  terminate early stop costing work.

Both kernels are **bit-identical** to the scalar reference (enforced by
the property tests of ``tests/test_align_batch.py``).  The scalar functions
remain the readable specification those tests compare against; this module
is the one fast path, the one the ``Alignment`` stage runs.

:func:`classify_overlaps` is the array analogue of
:func:`~repro.align.classify.classify_overlap`: dovetail / contained /
internal classification via boolean masks, emitting both directed edge
payloads as plain field arrays ready for one structured fill.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import AlignmentError
from ..kernels import resolve_kernel_tier
from ..seq.readstore import PackedReads
from ..telemetry.metrics import get_registry
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
]

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


#: The narrowest window of the gapless kernel: shorter slices share it.
_MIN_WINDOW = 32

#: Cells per gathered block of the gapless kernel; a bucket of wider rows
#: is cut into blocks of fewer rows, which bounds the kernel's footprint.
_BLOCK_CELLS = 1 << 20


def complemented_pool(buffer: np.ndarray) -> np.ndarray:
    """The pool both kernels read their slices from: ``g = [buffer, 3 -
    buffer]``, then ``g`` reversed, then a zero tail of ``max(len(buffer),
    32)``.

    Opposite-strand pairs read ``b`` from ``g``'s complemented half, and a
    slice read backwards from ``g[q]`` is read forwards from the reversed
    copy at ``2 * len(g) - 1 - q``, so every slice is one forward window
    of the pool.  A gapless window is at most twice its slice (or 32
    columns) and a banded one at most the longest read, which the zero
    tail leaves room for.  Chunked callers
    should build this **once per packed buffer** and pass it as
    ``comp_pool`` to every :func:`batch_xdrop_extend` call on that buffer.
    """
    buffer = np.asarray(buffer, dtype=np.uint8)
    n = buffer.size
    pool = np.zeros(_pool_size(n), dtype=np.uint8)
    pool[:n] = buffer
    np.subtract(np.uint8(3), buffer, out=pool[n : 2 * n])
    pool[3 * n : 4 * n] = buffer[::-1]
    np.subtract(np.uint8(3), pool[3 * n : 4 * n], out=pool[2 * n : 3 * n])
    return pool


def _pool_size(nbases: int) -> int:
    """Length of the :func:`complemented_pool` of ``nbases`` bases."""
    return 4 * nbases + max(nbases, _MIN_WINDOW)


def pack_codes(seqs: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate code arrays into a ``(buffer, offsets)`` sequence pool."""
    packed = PackedReads.from_codes(seqs)
    return packed.buffer, packed.offsets


def _window_starts(base: np.ndarray, sign: np.ndarray, nbases: int) -> np.ndarray:
    """Where the slices ``g[base + sign*t]`` start as forward windows of the
    :func:`complemented_pool` of ``nbases`` bases: a backward slice is read
    forwards from ``g``'s reversed copy."""
    return np.where(sign > 0, base, 4 * nbases - 1 - base)


def _windows(pool: np.ndarray, width: int) -> np.ndarray:
    """Every ``width``-column window of ``pool`` as rows of one strided view."""
    return np.ndarray((pool.size - width + 1, width), np.uint8, pool, strides=(1, 1))


def _gapless_side_batch(
    pool: np.ndarray,
    nbases: int,
    base_a: np.ndarray,
    sign_a: np.ndarray,
    base_b: np.ndarray,
    sign_b: np.ndarray,
    n: np.ndarray,
    x: int,
    match: int,
    mismatch: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch analogue of ``_gapless_one_side``: (steps_taken, score_gained).

    Row ``p`` compares ``g[base_a + sign_a*t]`` with ``g[base_b +
    sign_b*t]`` for ``t < n[p]``, where ``g`` is the doubled pool at the
    head of ``pool``, the :func:`complemented_pool` of ``nbases`` bases
    (opposite-strand ``b`` bases already point into its complemented
    half).

    The kernel evaluates the scan at *events* only.  With ``up`` and
    ``down`` the higher and lower step score, an event is a position whose
    step is ``down``, plus a terminal event at ``n``.  Before the event at
    ``pos`` with ``k`` events ahead of it in its row the score is ``P =
    up*(pos - k) + down*k``, and between events it climbs, so the running
    max of the scores before an event is the running max ``R`` of the
    events' ``P``.  The drop fires at the first event with ``R - P - down
    > x``; the result is ``R`` there and the first event reaching it.
    ``R`` is one ``maximum.accumulate`` over keys offset per row, which
    keeps the rows apart.  Rows with ``x < 0`` or no positive step take
    ``(0, 0)``, as the scalar does.
    """
    steps = np.zeros(n.size, dtype=np.int64)
    score = np.zeros(n.size, dtype=np.int64)
    up, down = max(match, mismatch), min(match, mismatch)
    rows = np.flatnonzero(n > 0)
    if x < 0 or up <= 0 or not rows.size:
        return steps, score
    start_a = _window_starts(base_a, sign_a, nbases)
    start_b = _window_starts(base_b, sign_b, nbases)
    # the row keys must fit int64: cut the rows into chunks that do
    longest, top = int(n.max()), max(abs(match), abs(mismatch))
    per_row = 2 * (longest + 2) * top + 1 + (up - down) * (longest + 1)
    chunk = max(1, (1 << 62) // per_row)
    events = np.equal if mismatch > match else np.not_equal
    for lo in range(0, rows.size, chunk):
        r = rows[lo : lo + chunk]
        steps[r], score[r] = _gapless_events(
            pool, start_a[r], start_b[r], n[r], x, up, down, events
        )
    return steps, score


def _gapless_events(pool, start_a, start_b, n, x, up, down, events):
    """The event scan of :func:`_gapless_side_batch` over rows with
    ``n > 0`` whose windows start at ``start_a`` / ``start_b`` of ``pool``;
    ``events(a, b)`` marks the ``down`` steps."""
    # windows of 2**shift > n columns (room for the terminal event at n),
    # rows sorted by width
    shift = np.maximum(np.frexp(n)[1], _MIN_WINDOW.bit_length() - 1)
    order = np.argsort(shift, kind="stable")
    shift, n = shift[order], n[order]
    start_a, start_b = start_a[order], start_b[order]
    nrows = n.size
    # row r owns cells rowstart[r] .. rowstart[r + 1] of the flattened blocks
    rowstart = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.left_shift(1, shift), out=rowstart[1:])
    col_dtype = np.min_scalar_type(1 << int(shift[-1]))
    n_col = n.astype(col_dtype)
    cuts = (np.flatnonzero(shift[1:] != shift[:-1]) + 1).tolist()
    pos_parts, cell_parts = [], []
    for b0, b1 in zip([0, *cuts], [*cuts, nrows]):
        sh = int(shift[b0])
        width = 1 << sh
        windows = _windows(pool, width)
        cols = np.arange(width, dtype=col_dtype)
        step = max(1, _BLOCK_CELLS >> sh)
        for r0 in range(b0, b1, step):
            r1 = min(r0 + step, b1)
            a = windows[start_a[r0:r1]]
            ev = events(a, windows[start_b[r0:r1]], out=a.view(bool))
            ev &= cols < n_col[r0:r1, None]
            ev[np.arange(r1 - r0), n[r0:r1]] = True
            f = np.flatnonzero(ev)
            pos_parts.append(f & (width - 1))
            cell_parts.append(f + rowstart[r0])
    pos = np.concatenate(pos_parts)
    # off[r]: the first event of row r; the last one is its terminal
    off = np.searchsorted(np.concatenate(cell_parts), rowstart)
    # key = r*(2C + 1) + C + P with C > |P|: rows never mix in the running max
    big = (int(n.max()) + 2) * max(abs(up), abs(down))
    row_key = np.arange(nrows, dtype=np.int64) * (2 * big + 1) + big
    key = np.repeat(row_key + (up - down) * off[:-1], np.diff(off))
    key += up * pos
    key -= (up - down) * np.arange(pos.size)
    # an event at position 0 has no score before it: key below every P
    at0 = np.flatnonzero(pos[off[:-1]] == 0)
    key[off[at0]] = row_key[at0] - big
    best = np.maximum.accumulate(key)
    drop = best - key > x + down
    drop[off[at0]] = False
    drop[off[1:] - 1] = True
    fired = np.flatnonzero(drop)
    first = fired[np.searchsorted(fired, off[:-1])]
    top = best[first]
    gained = top - row_key
    steps = np.zeros(nrows, dtype=np.int64)
    score = np.zeros(nrows, dtype=np.int64)
    good = gained > 0
    steps[order[good]] = pos[np.searchsorted(best, top[good])]
    score[order[good]] = gained[good]
    return steps, score


#: Lanes per block when a side's slices are copied into its code matrix
#: (bounds the transposing copy's scratch to a few hundred rows).
_COPY_LANES = 256

#: Antidiagonals per liveness check of the banded wavefront (at least 2):
#: a lane dead on two consecutive antidiagonals stays dead and keeps its
#: best, so the early break and the compaction look only every K-th one.
_CHECK_EVERY = 8


def _score_dtype(peak: int, top: int, x: int, low: int) -> tuple[type, int]:
    """The narrowest score dtype of :func:`_banded_side_batch`, and ``off``.

    A cell stores ``off + score * 2**low`` (0 when dead), plus a ramp
    below ``2**low`` in the reduction.  ``off`` is the smallest power of
    two above ``(x + 2 * top) << low``, so a cell computed from a live one
    stays positive and one computed from dead ones stays below the x-drop
    threshold.  With ``peak`` bounding every cell's score and ``top`` the
    largest step, no value the kernel forms reaches ``off + ((peak + 2 *
    top + 1) << low)``: the dtype is int16 when that bound is below
    ``2**15``, int32 when below ``2**31``, else int64.
    """
    off = 1 << ((x + 2 * top) << low).bit_length()
    bound = off + ((peak + 2 * top + 1) << low)
    for dtype in (np.int16, np.int32):
        if bound < 1 << (8 * np.dtype(dtype).itemsize - 1):
            return dtype, off
    return np.int64, off


#: Bits a code row carries past a lane's ``a`` (``b``) sequence: a code
#: from ``_PAST_A`` up is past one of them, and no two such rows of the
#: two sides, nor one and a base, compare equal.
_PAST_A, _PAST_B = 4, 8


def _code_rows(
    pool: np.ndarray,
    start_a: np.ndarray,
    start_b: np.ndarray,
    na: np.ndarray,
    nb: np.ndarray,
    acols: int,
    bcols: int,
    pad: int,
) -> np.ndarray:
    """The position-major code matrix of :func:`_banded_side_batch`, one
    column per lane.

    With ``bo = acols + 2 * pad``, code row ``pad + t`` holds ``a[t]`` and
    row ``bo + pad + bcols - 1 - t`` holds ``b[t]``, copied from the
    pool's windows a block of lanes at a time.  Row ``r < bo`` stands for
    cell ``i = r - pad + 1``, row ``r >= bo`` for ``j = bo + pad + bcols -
    r``; where that cell lies past ``na`` (``nb``) the row has the bit
    :data:`_PAST_A` (:data:`_PAST_B`) set, and every other row is 0.
    """
    bo = acols + 2 * pad
    nrows = bo + bcols + 2 * pad
    codes = np.zeros((nrows, na.size), dtype=np.uint8)
    a_rows = codes[pad : pad + acols]
    b_rows = codes[bo + pad : bo + pad + bcols][::-1]
    win_a, win_b = _windows(pool, acols), _windows(pool, bcols)
    rows = np.arange(nrows)[:, None]
    for l0 in range(0, na.size, _COPY_LANES):
        lb = slice(l0, l0 + _COPY_LANES)
        a_rows[:, lb] = win_a[start_a[lb]].T
        b_rows[:, lb] = win_b[start_b[lb]].T
        past_a = rows[:bo] >= pad + na[lb]
        past_b = rows[bo:] < bo + pad + bcols - nb[lb]
        codes[:bo, lb] |= np.multiply(past_a, _PAST_A, dtype=np.uint8)
        codes[bo:, lb] |= np.multiply(past_b, _PAST_B, dtype=np.uint8)
    return codes


def _banded_side_batch(
    pool: np.ndarray,
    start_a: np.ndarray,
    start_b: np.ndarray,
    na: np.ndarray,
    nb: np.ndarray,
    x: int,
    match: int,
    mismatch: int,
    gap: int,
    band: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch analogue of ``_banded_one_side``: (a_steps, b_steps, score).

    Lane ``p`` extends the ``na[p]`` bases at ``pool[start_a[p]:]``
    against the ``nb[p]`` bases at ``pool[start_b[p]:]``, both forward
    windows of a :func:`complemented_pool` (:func:`_window_starts`).

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
    * **Codes copied once.**  ``a`` is laid out forward and ``b``
      reversed, so the cells of ``s`` read ``a[i - 1]`` and ``b[j - 1]``
      as two contiguous row ranges of one uint8 matrix (about 1 byte per
      slice cell); the rows are copied straight from the pool's windows,
      and stop where the band leaves the other sequence.
    * **Cells past a sequence.**  A cell with ``i > na`` or ``j > nb``
      reads a code row marked :data:`_PAST_A` or :data:`_PAST_B`, which
      equals nothing, so every move into it scores a gap or a mismatch.
      Unless one of those is positive, such a cell never tops the best
      it grew from and feeds no cell inside both sequences, so the
      x-drop alone retires it.  Otherwise it must be dead: a lane has
      none before antidiagonal ``w0 = 2 min(na, nb) - band`` and is dead
      two past its last one (``<= w0 + 2 band``), so with lanes sorted by
      ``w0`` one narrow column range per antidiagonal is tested.  (Cells
      with ``i < 0`` or ``j < 0`` are never reached from a live cell.)
    * **Offset, scaled scores in the narrowest safe dtype.**  A cell
      stores ``off + score * 2**low`` and a dead cell is 0, so the x-drop
      is one compare and one multiply.  A descending slot ramp in the low
      bits makes the round's one reduction yield both the round max and
      its first-argmax slot.  :func:`_score_dtype` picks int16, int32 or
      int64 from this call's scores, lengths and ``x``.  The gap and
      mismatch steps are folded, ``max(g + gap, d + mis) = max(g + (gap -
      mis), d) + mis``, so equal ones cost one add fewer.
    * **Termination.**  A lane is live while the round max clears
      ``best - x`` on ``s`` or ``s - 1``: it ends after two consecutive
      dead antidiagonals, exactly like the scalar oracle.  A lane dead on
      two consecutive antidiagonals stays dead and keeps its best, so
      liveness is tested only on every :data:`_CHECK_EVERY`-th
      antidiagonal (and the one before it): the call stops there once no
      lane is live, and once the live count halves, retired lanes are
      compacted out of the working set, with only the code rows later
      antidiagonals still read.

    The antidiagonals computed are added to the ``align.banded_rounds``
    counter of the metrics registry: the last one with a live lane,
    rounded up to the next check, or the last one with a cell.
    """
    npairs = na.size
    best_i = np.zeros(npairs, dtype=np.int64)
    best_j = np.zeros(npairs, dtype=np.int64)
    best_score = np.zeros(npairs, dtype=np.int64)
    lanes = np.flatnonzero((na > 0) & (nb > 0))
    if not lanes.size:
        return best_i, best_j, best_score
    # lanes by the first antidiagonal with a cell past either sequence
    w0 = 2 * np.minimum(na[lanes], nb[lanes]) - band
    order = np.argsort(w0, kind="stable")
    lanes, w0 = lanes[order], w0[order]
    na, nb = na[lanes], nb[lanes]
    # the last antidiagonal with a cell inside both sequences and the band
    max_anti = int(np.minimum(na + nb, 2 * np.minimum(na, nb) + band).max())
    low = int(band + 1).bit_length()
    top = max(abs(match), abs(mismatch), abs(gap))
    # scores stay within +-max_anti * top, so a wider x-drop never fires
    x = min(x, 2 * max_anti * top + 1)
    # a path to (i, j) makes at most min(i, j) diagonal and i + j gap moves
    peak = max(match, mismatch, 0) * int(np.minimum(na, nb).max())
    peak += max(gap, 0) * int((na + nb).max())
    dtype, off = _score_dtype(peak, top, x, low)

    # position-major codes (see _code_rows).  A cell inside the band has
    # i <= j + band, so a lane never reads a past min(na, nb + band) (nor
    # b past its mirror)
    pad = band + 2
    acols = int(np.minimum(na, nb + band).max())
    bcols = int(np.minimum(nb, na + band).max())
    bo = acols + 2 * pad
    codes = _code_rows(pool, start_a[lanes], start_b[lanes], na, nb, acols, bcols, pad)
    row0 = 0  # the code row that codes[0] holds

    # parity plane c = rows base[c] .. base[c] + cnt[c] + 1 of `planes`;
    # slot k = c + 2m sits at row base[c] + 1 + m, guards either side
    cnt = (band + 1, band)
    base = (0, band + 3)
    planes = np.zeros((2 * band + 5, lanes.size), dtype=dtype)
    planes[base[band & 1] + 1 + band // 2] = off  # the empty extension
    # one full-width ramp per plane: a same-shape add is twice as fast as
    # a broadcast one
    ramp = [
        np.repeat(
            np.arange((1 << low) - 1, (1 << low) - 1 - n, -1, dtype=dtype)[:, None],
            lanes.size,
            axis=1,
        )
        for n in cnt
    ]
    high = dtype(-(1 << low))
    # max(g + gap, d + mis) = max(g + (gap - mis), d) + mis
    gap_s = dtype((gap - mismatch) << low)
    mis_s = dtype(mismatch << low)
    sub_s = dtype((match - mismatch) << low)
    x_s = dtype(x << low)

    best = np.full(lanes.size, off, dtype=dtype)
    best_key = np.full(lanes.size, (1 << low) - 1 - band // 2, dtype=dtype)
    best_s = np.zeros(lanes.size, dtype=np.int64)
    # every move into a cell past a sequence scores gap or mismatch (its
    # code equals nothing); unless one is positive, such a cell never tops
    # the best it grew from and needs no test
    test_past = gap > 0 or mismatch > 0

    def retire(rows):
        s = best_s[rows]
        m = (1 << low) - 1 - (best_key[rows] & ((1 << low) - 1)).astype(np.int64)
        i = ((s + ((s + band) & 1) - band) >> 1) + m
        best_i[lanes[rows]] = i
        best_j[lanes[rows]] = s - i
        best_score[lanes[rows]] = (best[rows].astype(np.int64) - off) >> low

    def views(planes):
        """Per parity: the plane, its two gap sources on the other plane,
        the ramp, and work arrays for g, d and the compares."""
        width = planes.shape[1]
        work = np.empty((2, band + 1, width), dtype=dtype)
        hit = np.empty((band + 1, width), dtype=bool)
        out = []
        for c, n in enumerate(cnt):
            side = base[1 - c] + c
            out.append((
                planes[base[c] + 1 : base[c] + 1 + n],
                planes[side : side + n],
                planes[side + 1 : side + 1 + n],
                ramp[c][:, :width],
                work[0, :n], work[1, :n], hit[:n],
            ))
        return out

    per = views(planes)
    for s in range(1, max_anti + 1):
        c = (s + band) & 1
        n = cnt[c]
        i0 = (s + c - band) >> 1  # i of the plane's first cell
        ra = pad + i0 - 1 - row0
        rb = bo + pad + bcols - (s - i0) - row0
        # cur still holds s - 2 here, left and right are s - 1
        cur, left, right, ramp_c, g, d, h = per[c]
        # gap moves: the better neighbour slot (k -+ 1) on s - 1
        np.maximum(left, right, out=g)
        if gap_s:
            g += gap_s
        # diagonal move: the same slot on s - 2, plus match - mismatch
        np.equal(codes[ra : ra + n], codes[rb : rb + n], out=h)
        np.multiply(h, sub_s, out=d)
        d += cur
        np.maximum(g, d, out=cur)
        cur += mis_s
        if test_past:
            w = slice(w0.searchsorted(s - 2 * band - 2), w0.searchsorted(s))
            past = np.maximum(codes[ra : ra + n, w], codes[rb : rb + n, w])
            cur[:, w] *= past < _PAST_A
        # round max and its first slot in one reduction
        np.add(cur, ramp_c, out=g)
        key = np.maximum.reduce(g, axis=0, initial=0)  # band 0: n may be 0
        rmax = key & high
        improve = rmax > best
        # an improving key tops the old one, which is positive
        np.maximum(best_key, key * improve, out=best_key)
        np.maximum(best_s, improve * s, out=best_s)
        np.maximum(best, rmax, out=best)
        # x-drop: kill cells too far below the (freshly updated) best
        thr = best - x_s
        np.greater_equal(cur, thr, out=h)
        np.multiply(cur, h, out=cur)
        # liveness on the last two antidiagonals of each block of K
        if s % _CHECK_EVERY == _CHECK_EVERY - 1:
            alive_prev = rmax >= thr
        if s % _CHECK_EVERY:
            continue
        live = alive_prev | (rmax >= thr)
        nlive = int(np.count_nonzero(live))
        if nlive == 0:
            break
        if 2 * nlive <= lanes.size:
            retire(np.flatnonzero(~live))
            keep = np.flatnonzero(live)
            # later antidiagonals read a rows from the next one's first
            # and b rows up to this one's last
            lo, hi = ra + (c ^ 1), rb + n
            planes = planes[:, keep]
            codes = codes[lo:hi, keep]
            row0 += lo
            best, best_key, best_s = best[keep], best_key[keep], best_s[keep]
            lanes, w0 = lanes[keep], w0[keep]
            per = views(planes)
    get_registry().counter("align.banded_rounds").inc(s)
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
        Optional :func:`complemented_pool` of ``buffer``; both kernels
        read their slices as windows of it.  Callers that chunk one packed
        buffer over many calls should build it once and pass it here so
        the kernels do not rebuild the pool per chunk.
    kernel_tier:
        ``None`` or ``"numpy"``, the one tier; any other name raises
        :class:`~repro.errors.KernelError`.
    span:
        Optional span factory (e.g. ``RankContext.span``); when given,
        the kernel call is wrapped in ``span("gapless")`` /
        ``span("banded")``.

    Returns
    -------
    BatchXdropResult
        Entry ``p`` is element-wise identical to
        ``xdrop_extend(a, b_oriented, seed_a, oriented_seed_b, ...)``.
    """
    resolve_kernel_tier(kernel_tier)
    buffer = np.asarray(buffer, dtype=np.uint8)
    offsets = np.asarray(offsets, dtype=np.int64)
    a_idx = np.asarray(a_idx, dtype=np.int64)
    b_idx = np.asarray(b_idx, dtype=np.int64)
    seed_a = np.asarray(seed_a, dtype=np.int64)
    pos_b = np.asarray(pos_b, dtype=np.int64)
    same = np.asarray(same_strand, dtype=bool)
    if mode not in ("diag", "dp"):
        raise AlignmentError(f"unknown alignment mode {mode!r}")
    if comp_pool is not None and comp_pool.size != _pool_size(buffer.size):
        raise AlignmentError(
            f"comp_pool size {comp_pool.size} is not the "
            f"{_pool_size(buffer.size)} of this buffer's complemented_pool"
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

    a_right, a_left, b_right, b_left = _oriented_side_geometry(
        a_off, b_off, seed_a, seed_b, alen, blen, same, seed_len
    )

    kernel = "gapless" if mode == "diag" else "banded"
    with span(kernel) if span is not None else nullcontext():
        pool = comp_pool if comp_pool is not None else complemented_pool(buffer)
        # opposite-strand b slices read the complemented half
        fold = np.where(same, np.int64(0), np.int64(buffer.size))
        if mode == "diag":
            # the two directions are independent extensions: stack them as
            # one 2B-row kernel call
            steps, gained = _gapless_side_batch(
                pool,
                buffer.size,
                np.concatenate([a_right[0], a_left[0]]),
                np.concatenate([a_right[1], a_left[1]]),
                np.concatenate([b_right[0] + fold, b_left[0] + fold]),
                np.concatenate([b_right[1], b_left[1]]),
                np.concatenate(
                    [np.minimum(a_right[2], b_right[2]), np.minimum(a_left[2], b_left[2])]
                ),
                x,
                match,
                mismatch,
            )
            a_steps_r = b_steps_r = steps[:npairs]
            a_steps_l = b_steps_l = steps[npairs:]
            right_score, left_score = gained[:npairs], gained[npairs:]
        else:
            # one side at a time, so one side's matrices are alive at once
            (a_steps_r, b_steps_r, right_score), (a_steps_l, b_steps_l, left_score) = (
                _banded_side_batch(
                    pool,
                    _window_starts(a[0], a[1], buffer.size),
                    _window_starts(b[0] + fold, b[1], buffer.size),
                    a[2], b[2], x, match, mismatch, gap, band,
                )
                for a, b in ((a_right, b_right), (a_left, b_left))
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
    min_score: int | None = None,
    min_overlap: int = 0,
    end_margin: int = 0,
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
    pool = complemented_pool(buffer) if a_idx.size else None
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
            comp_pool=pool,
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
