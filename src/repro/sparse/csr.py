"""Local compressed sparse column format with structured payloads.

The compressed format the paper's local assembly walks is CSC: ``JC`` (column
pointers), ``IR`` (row indices) and ``VAL`` (edge payloads) -- see §4.4.
Attribute names follow the paper: :attr:`LocalCsc.jc`, :attr:`LocalCsc.ir`,
:attr:`LocalCsc.val`.
"""

from __future__ import annotations

import numpy as np

from ..errors import SparseFormatError
from .coo import LocalCoo

__all__ = ["LocalCsc"]


class LocalCsc:
    """Compressed sparse column block: ``jc`` over columns, ``ir`` = rows."""

    __slots__ = ("shape", "jc", "ir", "val")

    def __init__(
        self,
        shape: tuple[int, int],
        jc: np.ndarray,
        ir: np.ndarray,
        val: np.ndarray,
    ) -> None:
        jc = np.asarray(jc, dtype=np.int64)
        ir = np.asarray(ir, dtype=np.int64)
        if jc.shape != (shape[1] + 1,):
            raise SparseFormatError(
                f"pointer array length {jc.shape[0]} != {shape[1] + 1}"
            )
        if jc[0] != 0 or jc[-1] != ir.shape[0]:
            raise SparseFormatError("pointer array must start at 0 and end at nnz")
        if np.any(np.diff(jc) < 0):
            raise SparseFormatError("pointer array must be non-decreasing")
        if ir.size and (ir.min() < 0 or ir.max() >= shape[0]):
            raise SparseFormatError(f"index out of range for shape {shape}")
        if val.shape[0] != ir.shape[0]:
            raise SparseFormatError(
                f"values length {val.shape[0]} != indices length {ir.shape[0]}"
            )
        self.shape = (int(shape[0]), int(shape[1]))
        self.jc = jc
        self.ir = ir
        self.val = val

    @property
    def nnz(self) -> int:
        return int(self.ir.size)

    @property
    def dtype(self) -> np.dtype:
        return self.val.dtype

    @classmethod
    def from_coo(cls, coo: LocalCoo) -> "LocalCsc":
        """Compress a (possibly unsorted) COO block by column."""
        coo = coo.sorted_by("col")
        counts = np.bincount(coo.cols, minlength=coo.shape[1])
        jc = np.zeros(coo.shape[1] + 1, dtype=np.int64)
        np.cumsum(counts, out=jc[1:])
        return cls(coo.shape, jc, coo.rows, coo.vals)

    def to_coo(self) -> LocalCoo:
        cols = np.repeat(np.arange(self.shape[1], dtype=np.int64), np.diff(self.jc))
        return LocalCoo(self.shape, self.ir, cols, self.val)

    # -- queries used by traversal ------------------------------------------
    def degree(self, index: int) -> int:
        """Number of stored entries in column ``index``
        (``JC[i+1] - JC[i]``, exactly the degree test of §4.4)."""
        return int(self.jc[index + 1] - self.jc[index])

    def degrees(self) -> np.ndarray:
        """Degrees of all columns."""
        return np.diff(self.jc)

    def slice_indices(self, index: int) -> np.ndarray:
        """The row indices stored in column ``index``."""
        return self.ir[self.jc[index] : self.jc[index + 1]]

    def slice_vals(self, index: int) -> np.ndarray:
        """The payloads stored in column ``index``."""
        return self.val[self.jc[index] : self.jc[index + 1]]

