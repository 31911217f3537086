"""Doubly compressed sparse column (DCSC) storage for hypersparse blocks.

In a 2D distribution over P processes each local block holds ~nnz/P nonzeros
spread over n/sqrt(P) columns; as P grows most columns are empty and CSC's
O(n) column-pointer array dominates memory.  DCSC (Buluc & Gilbert, 2008)
compresses the pointer array too: only *non-empty* columns are stored.

ELBA stores its distributed matrices in DCSC and, for the local-assembly
traversal, converts the (now small) local matrices to plain CSC "as only
column pointers needs to be uncompressed and row indices array stays intact"
(§4.4).  :meth:`Dcsc.to_csc` implements exactly that uncompression.
"""

from __future__ import annotations

import numpy as np

from ..errors import SparseFormatError
from .coo import LocalCoo
from .csr import LocalCsc

__all__ = ["Dcsc"]


class Dcsc:
    """A hypersparse local block: column pointers only for non-empty columns.

    Attributes
    ----------
    jc:
        Sorted global-within-block indices of the non-empty columns
        (length = number of non-empty columns).
    cp:
        Pointer array of length ``len(jc) + 1`` into :attr:`ir`/:attr:`val`.
    ir:
        Row indices of the stored entries, column-major order.
    val:
        Payloads, aligned with :attr:`ir`.
    """

    __slots__ = ("shape", "jc", "cp", "ir", "val")

    def __init__(
        self,
        shape: tuple[int, int],
        jc: np.ndarray,
        cp: np.ndarray,
        ir: np.ndarray,
        val: np.ndarray,
    ) -> None:
        jc = np.asarray(jc, dtype=np.int64)
        cp = np.asarray(cp, dtype=np.int64)
        ir = np.asarray(ir, dtype=np.int64)
        if cp.shape != (jc.shape[0] + 1,):
            raise SparseFormatError("cp must have len(jc) + 1 entries")
        if jc.size and (jc.min() < 0 or jc.max() >= shape[1]):
            raise SparseFormatError(f"jc out of range for shape {shape}")
        if jc.size > 1 and np.any(np.diff(jc) <= 0):
            raise SparseFormatError("jc must be strictly increasing")
        if cp.size and (cp[0] != 0 or cp[-1] != ir.shape[0]):
            raise SparseFormatError("cp must start at 0 and end at nnz")
        if np.any(np.diff(cp) < 1) and jc.size:
            raise SparseFormatError("every column listed in jc must be non-empty")
        if val.shape[0] != ir.shape[0]:
            raise SparseFormatError("val and ir lengths differ")
        self.shape = (int(shape[0]), int(shape[1]))
        self.jc = jc
        self.cp = cp
        self.ir = ir
        self.val = val

    @property
    def nnz(self) -> int:
        return int(self.ir.size)

    @property
    def ncols_nonempty(self) -> int:
        return int(self.jc.size)

    @property
    def dtype(self) -> np.dtype:
        return self.val.dtype

    @classmethod
    def from_coo(cls, coo: LocalCoo) -> "Dcsc":
        """Build from a COO block (duplicates must already be combined)."""
        coo = coo.sorted_by("col")
        cols, rows, vals = coo.cols, coo.rows, coo.vals
        if cols.size == 0:
            return cls(
                coo.shape,
                np.empty(0, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                rows,
                vals,
            )
        change = np.empty(cols.size, dtype=bool)
        change[0] = True
        np.not_equal(cols[1:], cols[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        jc = cols[starts]
        cp = np.append(starts, cols.size).astype(np.int64)
        return cls(coo.shape, jc, cp, rows, vals)

    def to_coo(self) -> LocalCoo:
        cols = np.repeat(self.jc, np.diff(self.cp))
        return LocalCoo(self.shape, self.ir, cols, self.val)

    def to_csc(self) -> LocalCsc:
        """Uncompress the column pointers into a plain CSC block.

        Linear in the number of local columns; ``ir`` and ``val`` are shared
        (no copy), matching the conversion cost argument of §4.4.
        """
        jc_full = np.zeros(self.shape[1] + 1, dtype=np.int64)
        counts = np.zeros(self.shape[1], dtype=np.int64)
        counts[self.jc] = np.diff(self.cp)
        np.cumsum(counts, out=jc_full[1:])
        return LocalCsc(self.shape, jc_full, self.ir, self.val)

    def memory_bytes(self) -> int:
        """Approximate storage footprint (for the DCSC-vs-CSC ablation)."""
        return int(
            self.jc.nbytes + self.cp.nbytes + self.ir.nbytes + self.val.nbytes
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dcsc(shape={self.shape}, nnz={self.nnz}, "
            f"nonempty_cols={self.ncols_nonempty})"
        )
