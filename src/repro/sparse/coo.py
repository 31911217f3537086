"""Local COO (triple) sparse matrix with arbitrary structured payloads.

``scipy.sparse`` only supports numeric dtypes, so the library carries its own
minimal COO type: three parallel arrays (row, col, val) plus a shape.  This
is the one local format: the distributed layer, the SpGEMM kernel and the
local assembly all hold blocks as ``LocalCoo``, and a compressed column
view is ``sorted_by("col")`` plus
:func:`~repro.sparse.spgemm.column_pointers`.

All operations are NumPy-vectorized; nothing here loops per-nonzero.  Every
sort by a pair of coordinates is one stable argsort of one fused int64 key
(:func:`fused_key`), not a two-key sort: it costs ~0.55-0.65x as much,
breaks ties the same way, and numpy's stable int64 sort (timsort) merges
already-sorted runs -- such as row-sorted SUMMA partials -- almost for
free.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import SparseFormatError

__all__ = ["LocalCoo", "segment_starts", "segment_order", "fused_key"]


def fused_key(major: np.ndarray, minor: np.ndarray, span: int) -> np.ndarray:
    """``major * span + minor`` as one int64 sort key.

    With ``0 <= minor < span``, ``np.argsort(key, kind="stable")`` orders
    by ``major``, then ``minor``, and keeps equal pairs in input order --
    the two-key stable sort it replaces, ties included, so keep-first and
    first-on-ties reductions are unchanged.  Assumes
    ``(major.max() + 1) * span < 2**63`` -- for ``(row, col)`` keys, a
    block of fewer than ``2**63`` cells, which the local SpGEMM's slot
    keys assume too.
    """
    key = np.asarray(major, dtype=np.int64) * span
    key += minor
    return key


def segment_order(secondary: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Stable order of the entries by (segment, ``secondary``).

    Segment ``i`` is ``starts[i]:starts[i + 1]`` (the last runs to the end,
    ``starts[0] == 0``), so ``segment_order(x, starts)[starts]`` is each
    segment's first minimum of ``x`` -- the within-segment argmin of the
    segmented reductions.
    """
    seg = np.repeat(
        np.arange(starts.size, dtype=np.int64),
        np.diff(starts, append=secondary.shape[0]),
    )
    offset = secondary.astype(np.int64)
    offset -= offset.min(initial=0)  # initial: an empty input stays valid
    return np.argsort(
        fused_key(seg, offset, int(offset.max(initial=0)) + 1), kind="stable"
    )


def segment_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Indices where a new segment begins in a sorted key array.

    Used for segmented (per-duplicate-coordinate) semiring reductions.
    """
    if sorted_keys.size == 0:
        return np.empty(0, dtype=np.int64)
    change = np.empty(sorted_keys.size, dtype=bool)
    change[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=change[1:])
    return np.flatnonzero(change)


class LocalCoo:
    """A local sparse block in coordinate format.

    Parameters
    ----------
    shape:
        ``(nrows, ncols)`` of the block (local coordinates).
    rows, cols:
        ``int64`` coordinate arrays of equal length.
    vals:
        Payload array of equal length; any dtype including structured.
    order:
        The caller's promise that the entries already are as
        ``sorted_by(order)`` would leave them (``"row"``, ``"col"`` or
        ``None`` for unknown); it is what lets ``sorted_by`` skip the sort.
    """

    __slots__ = ("shape", "rows", "cols", "vals", "order")

    def __init__(
        self,
        shape: tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        order: str | None = None,
    ) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals)
        if not (
            rows.ndim == cols.ndim == 1 <= vals.ndim
            and rows.shape[0] == cols.shape[0] == vals.shape[0]
        ):
            raise SparseFormatError(
                f"coordinate arrays disagree: rows {rows.shape}, "
                f"cols {cols.shape}, vals {vals.shape}"
            )
        nr, nc = shape
        if rows.size:
            if rows.min() < 0 or rows.max() >= nr:
                raise SparseFormatError(
                    f"row index out of range for shape {shape}"
                )
            if cols.min() < 0 or cols.max() >= nc:
                raise SparseFormatError(
                    f"col index out of range for shape {shape}"
                )
        self.shape = (int(nr), int(nc))
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self.order = order

    # -- constructors -----------------------------------------------------
    @classmethod
    def empty(cls, shape: tuple[int, int], dtype: np.dtype) -> "LocalCoo":
        z = np.empty(0, dtype=np.int64)
        return cls(shape, z, z.copy(), np.empty(0, dtype=dtype))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "LocalCoo":
        """Build from a dense numeric matrix (testing convenience)."""
        rows, cols = np.nonzero(dense)
        return cls(dense.shape, rows, cols, dense[rows, cols])

    # -- basic properties ---------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.rows.size)

    @property
    def dtype(self) -> np.dtype:
        return self.vals.dtype

    @property
    def nbytes(self) -> int:
        """Live bytes of the triple arrays (the modeled working-set unit)."""
        return int(self.rows.nbytes + self.cols.nbytes + self.vals.nbytes)

    def slice(self, lo: int, hi: int, order: str | None = None) -> "LocalCoo":
        """Entries ``lo:hi`` as views, promised to be in ``order``.  A range
        of a valid block is valid, so it skips the constructor's checks."""
        part = object.__new__(LocalCoo)
        part.shape, part.order = self.shape, order
        part.rows, part.cols = self.rows[lo:hi], self.cols[lo:hi]
        part.vals = self.vals[lo:hi]
        return part

    def copy(self) -> "LocalCoo":
        return LocalCoo(
            self.shape, self.rows.copy(), self.cols.copy(), self.vals.copy(),
            order=self.order,
        )

    # -- transforms -----------------------------------------------------------
    def transpose(self) -> "LocalCoo":
        """Swap rows and columns (values unchanged -- payload mirroring, if
        needed, is the caller's responsibility)."""
        flipped = {"row": "col", "col": "row"}.get(self.order)
        return LocalCoo(
            (self.shape[1], self.shape[0]), self.cols, self.rows, self.vals,
            order=flipped,
        )

    def _order_key(self, order: str) -> np.ndarray:
        """The fused key sorting entries row-major (``"row"``) or
        col-major (``"col"``)."""
        nr, nc = self.shape
        if order == "row":
            return fused_key(self.rows, self.cols, nc)
        if order == "col":
            return fused_key(self.cols, self.rows, nr)
        raise ValueError(f"order must be 'row' or 'col', got {order!r}")

    def sorted_by(self, order: str = "row") -> "LocalCoo":
        """Sorted row-major (``"row"``) or col-major (``"col"``): a sorted
        copy, or ``self`` when it is known to be in that order already."""
        if order == self.order:
            return self
        perm = np.argsort(self._order_key(order), kind="stable")
        return LocalCoo(
            self.shape, self.rows[perm], self.cols[perm], self.vals[perm],
            order=order,
        )

    def deduped(
        self,
        add_reduce: Callable[[np.ndarray, np.ndarray], np.ndarray],
        order: str = "row",
    ) -> "LocalCoo":
        """Combine duplicate coordinates with a segmented semiring add,
        leaving the block sorted row-major (``"row"``) or col-major
        (``"col"``).

        ``add_reduce(vals_sorted, seg_starts)`` must return one value per
        segment of equal coordinates; the sort is stable, so a segment's
        values arrive in input order -- the same segments, in the same
        order, whichever ``order`` sorts them.
        """
        if self.nnz == 0:
            return self
        keys = self._order_key(order)
        perm = np.argsort(keys, kind="stable")
        r, c, v = self.rows[perm], self.cols[perm], self.vals[perm]
        starts = segment_starts(keys[perm])
        if starts.size == r.size:  # already duplicate-free
            return LocalCoo(self.shape, r, c, v, order=order)
        return LocalCoo(
            self.shape, r[starts], c[starts], add_reduce(v, starts), order=order
        )

    def select(self, mask: np.ndarray) -> "LocalCoo":
        """Keep only the entries where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.rows.shape:
            raise SparseFormatError(
                f"mask shape {mask.shape} != nnz shape {self.rows.shape}"
            )
        return LocalCoo(
            self.shape, self.rows[mask], self.cols[mask], self.vals[mask],
            order=self.order,
        )

    def map_vals(self, func: Callable[..., np.ndarray]) -> "LocalCoo":
        """Apply a vectorized function to the payloads (CombBLAS ``Apply``).

        ``func(vals, rows, cols)`` receives coordinates for position-aware
        transforms; it must return a payload array of the same length.
        """
        new_vals = np.asarray(func(self.vals, self.rows, self.cols))
        if new_vals.shape[0] != self.nnz:
            raise SparseFormatError(
                f"map_vals changed nnz: {new_vals.shape[0]} != {self.nnz}"
            )
        return LocalCoo(self.shape, self.rows, self.cols, new_vals)

    def row_counts(self) -> np.ndarray:
        """Number of nonzeros in each local row."""
        return np.bincount(self.rows, minlength=self.shape[0]).astype(np.int64)

    def col_counts(self) -> np.ndarray:
        """Number of nonzeros in each local column."""
        return np.bincount(self.cols, minlength=self.shape[1]).astype(np.int64)

    def to_dense(self) -> np.ndarray:
        """Dense numeric matrix (testing convenience; numeric payloads only)."""
        if self.dtype.names is not None:
            raise SparseFormatError("to_dense requires a numeric payload dtype")
        out = np.zeros(self.shape, dtype=self.dtype)
        np.add.at(out, (self.rows, self.cols), self.vals)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LocalCoo(shape={self.shape}, nnz={self.nnz}, dtype={self.dtype})"
