"""X-drop seed-and-extend pairwise alignment.

diBELLA 2D scores every candidate overlap with a seed-and-extend aligner
that terminates when the running score falls more than ``x`` below the best
score seen (the *x-drop* rule), which is why alignments "can potentially end
early ... leaving a short overhang" (§4.4) -- the reason ELBA stores the
``post`` coordinate at all.

Two extension engines are provided:

* ``mode="diag"`` -- gapless extension along the seed diagonal, fully
  vectorized (running-max cumulative score + first-drop cutoff).  Exact for
  substitution-only error models and the fast path for the benchmarks.
* ``mode="dp"`` -- banded dynamic programming with affine-free gap costs,
  handling insertions/deletions (the H. sapiens 15%-error regime).

Scores: match +1, mismatch -1, gap -1 (configurable).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AlignmentError

__all__ = ["XdropResult", "xdrop_extend", "extend_gapless", "extend_banded"]


@dataclass(frozen=True)
class XdropResult:
    """Alignment endpoints in the *oriented* coordinate frames.

    ``[a_begin, a_end)`` of sequence ``a`` aligns to ``[b_begin, b_end)`` of
    sequence ``b`` (both half-open, in the orientation the caller passed the
    arrays), with total ``score``.
    """

    score: int
    a_begin: int
    a_end: int
    b_begin: int
    b_end: int

    @property
    def a_span(self) -> int:
        return self.a_end - self.a_begin

    @property
    def b_span(self) -> int:
        return self.b_end - self.b_begin


def _gapless_one_side(
    a: np.ndarray, b: np.ndarray, x: int, match: int, mismatch: int
) -> tuple[int, int]:
    """Extend along one direction; returns (steps_taken, score_gained).

    ``a`` and ``b`` are the outward-facing slices (already reversed for
    leftward extension).  Vectorized x-drop: cumulative score, running max,
    cut at the first position where the drop exceeds ``x``, and return the
    argmax *before* the cut.
    """
    n = min(a.size, b.size)
    if n == 0:
        return 0, 0
    step = np.where(a[:n] == b[:n], match, mismatch).astype(np.int64)
    score = np.cumsum(step)
    best = np.maximum.accumulate(score)
    dropped = np.flatnonzero(best - score > x)
    limit = int(dropped[0]) if dropped.size else n
    if limit == 0:
        return 0, 0
    window = score[:limit]
    k = int(np.argmax(window))
    if window[k] <= 0:
        return 0, 0
    return k + 1, int(window[k])


def extend_gapless(
    a: np.ndarray,
    b: np.ndarray,
    seed_a: int,
    seed_b: int,
    seed_len: int,
    x: int,
    match: int = 1,
    mismatch: int = -1,
) -> XdropResult:
    """Gapless x-drop extension from an exact seed match."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if not (0 <= seed_a <= a.size - seed_len and 0 <= seed_b <= b.size - seed_len):
        raise AlignmentError(
            f"seed ({seed_a}, {seed_b}, len {seed_len}) outside sequences "
            f"of lengths ({a.size}, {b.size})"
        )
    right_steps, right_score = _gapless_one_side(
        a[seed_a + seed_len :], b[seed_b + seed_len :], x, match, mismatch
    )
    left_steps, left_score = _gapless_one_side(
        a[:seed_a][::-1], b[:seed_b][::-1], x, match, mismatch
    )
    return XdropResult(
        score=seed_len * match + left_score + right_score,
        a_begin=seed_a - left_steps,
        a_end=seed_a + seed_len + right_steps,
        b_begin=seed_b - left_steps,
        b_end=seed_b + seed_len + right_steps,
    )


def _banded_one_side(
    a: np.ndarray,
    b: np.ndarray,
    x: int,
    match: int,
    mismatch: int,
    gap: int,
    band: int,
) -> tuple[int, int, int]:
    """Banded DP extension; returns (a_steps, b_steps, score_gained).

    Classic x-drop extension DP over offsets ``d = i - j`` within
    ``[-band, band]``; a cell dies once its score falls more than ``x``
    below the global best.  Each antidiagonal is one vectorized update.

    The extension ends after **two** consecutive antidiagonals without a
    live cell (none inside the band and the sequences, or every one
    x-dropped): a cell on antidiagonal ``s + 1`` is still reachable by a
    diagonal move from a live cell on ``s - 1``, so one dead antidiagonal
    is not yet the end.
    """
    na, nb = a.size, b.size
    if na == 0 or nb == 0:
        return 0, 0, 0
    width = 2 * band + 1
    NEG = np.int64(-(1 << 40))
    # prev[d + band] = best score ending at (i, j) on the previous
    # antidiagonal with i - j = d
    prev = np.full(width, NEG, dtype=np.int64)
    prev2 = np.full(width, NEG, dtype=np.int64)
    prev[band] = 0  # empty extension
    best_score, best_i, best_j = 0, 0, 0
    max_anti = na + nb
    dead_run = 0
    for s in range(1, max_anti + 1):
        # cells on antidiagonal s: i + j == s, i = (s + d) / 2
        d = np.arange(-band, band + 1, dtype=np.int64)
        i2 = s + d
        valid = (i2 >= 0) & (i2 % 2 == 0)
        i = i2 // 2
        j = s - i
        valid &= (i >= 0) & (i <= na) & (j >= 0) & (j <= nb)
        # gap moves come from the same-parity neighbors on antidiagonal s-1
        from_del = np.full(width, NEG, dtype=np.int64)  # i-1, j  (d - 1)
        from_ins = np.full(width, NEG, dtype=np.int64)  # i, j-1  (d + 1)
        from_del[1:] = prev[:-1]
        from_ins[:-1] = prev[1:]
        gap_best = np.maximum(from_del, from_ins)
        gap_score = np.where(gap_best > NEG, gap_best + gap, NEG)
        # diagonal move from antidiagonal s-2, same d: consumes a[i-1], b[j-1]
        ai = np.clip(i - 1, 0, max(na - 1, 0))
        bj = np.clip(j - 1, 0, max(nb - 1, 0))
        sub = np.where(a[ai] == b[bj], match, mismatch).astype(np.int64)
        diag_ok = (i >= 1) & (j >= 1) & (prev2 > NEG)
        diag_score = np.where(diag_ok, prev2 + sub, NEG)
        cur = np.maximum(gap_score, diag_score)
        cur[~valid] = NEG
        # x-drop: kill cells too far below the best
        alive = cur > NEG
        if alive.any():
            round_best = int(cur[alive].max())
            if round_best > best_score:
                pos = int(np.argmax(np.where(alive, cur, NEG)))
                best_score = round_best
                best_i = int(i[pos])
                best_j = int(j[pos])
            cur[alive & (cur < best_score - x)] = NEG
        dead_run = 0 if (cur > NEG).any() else dead_run + 1
        if dead_run == 2:
            break
        prev2, prev = prev, cur
    return best_i, best_j, best_score


def extend_banded(
    a: np.ndarray,
    b: np.ndarray,
    seed_a: int,
    seed_b: int,
    seed_len: int,
    x: int,
    match: int = 1,
    mismatch: int = -1,
    gap: int = -1,
    band: int = 16,
) -> XdropResult:
    """Banded-DP x-drop extension from an exact seed match."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if not (0 <= seed_a <= a.size - seed_len and 0 <= seed_b <= b.size - seed_len):
        raise AlignmentError(
            f"seed ({seed_a}, {seed_b}, len {seed_len}) outside sequences "
            f"of lengths ({a.size}, {b.size})"
        )
    ri, rj, rs = _banded_one_side(
        a[seed_a + seed_len :], b[seed_b + seed_len :], x, match, mismatch, gap, band
    )
    li, lj, ls = _banded_one_side(
        a[:seed_a][::-1], b[:seed_b][::-1], x, match, mismatch, gap, band
    )
    return XdropResult(
        score=seed_len * match + ls + rs,
        a_begin=seed_a - li,
        a_end=seed_a + seed_len + ri,
        b_begin=seed_b - lj,
        b_end=seed_b + seed_len + rj,
    )


def xdrop_extend(
    a: np.ndarray,
    b: np.ndarray,
    seed_a: int,
    seed_b: int,
    seed_len: int,
    x: int,
    mode: str = "diag",
    **kwargs,
) -> XdropResult:
    """Dispatch to the gapless (``"diag"``) or banded (``"dp"``) engine."""
    if mode == "diag":
        return extend_gapless(a, b, seed_a, seed_b, seed_len, x, **kwargs)
    if mode == "dp":
        return extend_banded(a, b, seed_a, seed_b, seed_len, x, **kwargs)
    raise AlignmentError(f"unknown alignment mode {mode!r}")
