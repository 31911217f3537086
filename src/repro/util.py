"""Small shared utilities."""

from __future__ import annotations

import numpy as np

__all__ = ["sorted_lookup", "cumsum0", "ragged_arange", "gather_pieces"]


def sorted_lookup(table: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Locate ``queries`` in a sorted ``table``.

    Returns ``(found, pos)`` where ``found`` is a boolean mask and ``pos``
    the table index of each hit (0 where not found; mask before use).  Safe
    for empty tables and empty queries -- the repeated inline pattern this
    replaces indexed an empty array eagerly.
    """
    queries = np.asarray(queries)
    if table.size == 0 or queries.size == 0:
        return (
            np.zeros(queries.shape, dtype=bool),
            np.zeros(queries.shape, dtype=np.int64),
        )
    pos = np.searchsorted(table, queries)
    pos_c = np.minimum(pos, table.size - 1)
    found = (pos < table.size) & (table[pos_c] == queries)
    return found, pos_c


def cumsum0(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum (offsets of packed groups)."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def ragged_arange(firsts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(f, f + c) for f, c in zip(firsts, counts)])``."""
    offsets = cumsum0(counts)
    out = np.arange(offsets[-1], dtype=np.int64)
    out -= np.repeat(offsets[:-1] - firsts, counts)
    return out


def gather_pieces(
    buffer: np.ndarray,
    base: np.ndarray,
    lengths: np.ndarray,
    sign: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate strided buffer pieces in one gather.

    Piece ``i`` is ``buffer[base[i] + sign[i] * t]`` for ``t < lengths[i]``
    (``sign`` defaults to all ``+1``); returns ``(codes, offsets)`` where
    piece ``i`` occupies ``codes[offsets[i]:offsets[i+1]]``.  This is the
    array form of the per-read slice loop: one index build and one fancy
    gather instead of O(pieces) Python slices -- what ``PackedReads.select``,
    a ``RoutePlan``'s ragged columns and the batched contig concatenation use.
    """
    base = np.asarray(base, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = cumsum0(lengths)
    total = int(offsets[-1])
    # int32 indices halve the gather's memory traffic; int64 only when the
    # pool or the expanded index stream could overflow them
    idtype = np.int32 if max(buffer.size, total) < (1 << 31) - 1 else np.int64
    # piece i's element j reads base[i] + sign[i]*(j - offsets[i]): folding
    # the per-piece constant into one repeat keeps this at two expansions
    if sign is None:
        idx = np.repeat((base - offsets[:-1]).astype(idtype), lengths)
        idx += np.arange(total, dtype=idtype)
    else:
        sign = np.asarray(sign)
        idx = np.repeat(sign.astype(idtype), lengths)
        idx *= np.arange(total, dtype=idtype)
        idx += np.repeat(
            (base - sign * offsets[:-1]).astype(idtype), lengths
        )
    # ``take`` is the same gather as ``buffer[idx]``, ~1/3 faster on a
    # uint8 pool (numpy 2.4)
    return buffer.take(idx, axis=0), offsets
