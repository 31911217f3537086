"""Square process grid: the 2D rank layout all distributed matrices use.

ELBA organizes its P processes logically as a sqrt(P) x sqrt(P) grid
(§4.3).  Matrix rows are split over grid rows and matrix columns over grid
columns; vectors are split P ways in rank order.  That block layout is
derived here and nowhere else: :meth:`ProcGrid.block_bounds` and
:meth:`ProcGrid.owner_of_entry` for matrices, :meth:`ProcGrid.vec_bounds`
and :meth:`ProcGrid.owner_of_vec` for vectors -- the distributed types read
them.  The grid also provides the row/column sub-communicators used by
SUMMA SpGEMM and by the induced-subgraph algorithm's row-dimension
allgather, plus the *transposed processor* partner map used for its
point-to-point step.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DistributionError, GridError
from ..util import cumsum0
from .comm import SimComm, SimWorld, block_owner, block_range, block_sizes

__all__ = ["ProcGrid"]


class ProcGrid:
    """A sqrt(P) x sqrt(P) logical grid over a :class:`SimWorld`.

    Rank ``r`` sits at coordinates ``(r // q, r % q)`` (row-major), matching
    CombBLAS's default layout.  ``P`` must be a perfect square.
    """

    def __init__(self, world: SimWorld) -> None:
        q = math.isqrt(world.nprocs)
        if q * q != world.nprocs:
            raise GridError(
                f"process count {world.nprocs} is not a perfect square; "
                f"ELBA requires a sqrt(P) x sqrt(P) grid"
            )
        self.world = world
        self.q = q
        self.nprocs = world.nprocs
        self._vec_bounds: dict[int, np.ndarray] = {}
        self.row_comms: list[SimComm] = [
            world.subcomm([self.rank_of(i, j) for j in range(q)], label=f"row{i}")
            for i in range(q)
        ]
        self.col_comms: list[SimComm] = [
            world.subcomm([self.rank_of(i, j) for i in range(q)], label=f"col{j}")
            for j in range(q)
        ]

    # -- coordinates ------------------------------------------------------
    def rank_of(self, i: int, j: int) -> int:
        """World rank of grid position ``(i, j)``."""
        if not (0 <= i < self.q and 0 <= j < self.q):
            raise GridError(f"grid position ({i}, {j}) outside {self.q}x{self.q}")
        return i * self.q + j

    def coords_of(self, rank: int) -> tuple[int, int]:
        """Grid position ``(i, j)`` of world rank ``rank``."""
        if not 0 <= rank < self.nprocs:
            raise GridError(f"rank {rank} outside grid of {self.nprocs}")
        return divmod(rank, self.q)

    def transpose_rank(self, rank: int) -> int:
        """The *transposed processor* P(j, i) of rank P(i, j) (Fig. 2)."""
        i, j = self.coords_of(rank)
        return self.rank_of(j, i)

    def transpose_partners(self) -> list[int]:
        """Partner map for :meth:`SimComm.sendrecv` pairing P(i,j) with P(j,i)."""
        return [self.transpose_rank(r) for r in range(self.nprocs)]

    # -- block distributions -----------------------------------------------
    def row_block(self, n: int, i: int) -> tuple[int, int]:
        """Global row range owned by grid row ``i`` for an ``n``-row matrix."""
        return block_range(n, self.q, i)

    def col_block(self, n: int, j: int) -> tuple[int, int]:
        """Global column range owned by grid column ``j``."""
        return block_range(n, self.q, j)

    def block_bounds(self, shape: tuple[int, int]) -> list[tuple[int, int, int, int]]:
        """Every rank's block ``(rlo, rhi, clo, chi)`` of a ``shape`` matrix,
        in rank order: grid row ``i`` owns rows ``row_block(n, i)`` and grid
        column ``j`` columns ``col_block(m, j)``."""
        rb = cumsum0(block_sizes(shape[0], self.q)).tolist()
        cb = cumsum0(block_sizes(shape[1], self.q)).tolist()
        return [
            (rb[i], rb[i + 1], cb[j], cb[j + 1])
            for i in range(self.q)
            for j in range(self.q)
        ]

    def owner_of_entry(self, shape: tuple[int, int], rows, cols):
        """Rank owning matrix entry/entries ``(rows, cols)`` of a ``shape``
        matrix.  The one place coordinates are checked against the global
        shape: anything outside raises :class:`DistributionError`."""
        n, m = shape
        rows, cols = np.asarray(rows), np.asarray(cols)
        bad = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= m)
        if bad.any():
            k = int(np.argmax(bad))
            raise DistributionError(
                f"entry ({rows.flat[k]}, {cols.flat[k]}) outside matrix of "
                f"shape ({n}, {m})"
            )
        return block_owner(n, self.q, rows) * self.q + block_owner(m, self.q, cols)

    def vec_bounds(self, n: int) -> np.ndarray:
        """The P+1 boundaries of the vector layout: rank ``r`` owns global
        indices ``[bounds[r], bounds[r + 1])``.

        Vectors are split P ways (§4.3: "the vector v ... is divided into P
        subvectors, each of size ~ n/P"), but *hierarchically*, as CombBLAS
        does: rank P(i, j) owns the j-th q-way sub-block of grid row i's
        matrix row block.  This nesting is what lets the induced-subgraph
        algorithm reconstruct a full row block from one allgather over the
        row communicator -- a flat P-way split would misalign whenever the
        two remainders disagree.  The boundaries are monotone in rank order
        (repeated where a sub-block is empty).  Computed once per ``n``
        (every ``owner_of_vec`` / ``vec_block`` call reads it) and shared
        read-only.
        """
        bounds = self._vec_bounds.get(n)
        if bounds is None:
            rows = block_sizes(n, self.q)
            sub = rows[:, None] // self.q + (np.arange(self.q) < rows[:, None] % self.q)
            bounds = self._vec_bounds[n] = cumsum0(sub.ravel())
            bounds.flags.writeable = False
        return bounds

    def vec_block(self, n: int, rank: int) -> tuple[int, int]:
        """Global index range of the vector sub-block owned by ``rank``."""
        if not 0 <= rank < self.nprocs:
            raise GridError(f"rank {rank} outside grid of {self.nprocs}")
        bounds = self.vec_bounds(n)
        return int(bounds[rank]), int(bounds[rank + 1])

    def owner_of_vec(self, n: int, idx):
        """Rank owning vector element(s) ``idx`` (in ``[0, n)``; callers
        range-check).  ``side="right"`` steps over the repeated boundaries
        of empty sub-blocks."""
        return np.searchsorted(self.vec_bounds(n), idx, side="right") - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcGrid({self.q}x{self.q}, P={self.nprocs})"
