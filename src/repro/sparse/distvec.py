"""Block-distributed dense vectors over the process grid.

Vectors (degree vector **d**, contig-membership vector **v**, assignment
vector **p**, ...) are split P ways in rank order, each rank owning a
contiguous sub-block of ~n/P elements (§4.3; the boundaries are
:meth:`ProcGrid.vec_bounds <repro.mpi.grid.ProcGrid.vec_bounds>`).  The
simulator holds the P blocks as one flat array of length ``n``:
``blocks`` reads them back as per-rank views
(:class:`~repro.mpi.comm.RankBlocks`), and whole-vector work is one array
operation, as LACC writes it.  The key communication primitive is
:meth:`DistVector.gather`: ranks fetch arbitrary remote elements by global
index -- the owner-computes pattern LACC and the induced-subgraph function
use -- as one :meth:`SimComm.route <repro.mpi.comm.SimComm.route>` plan
(*send* the requests to their owners, *reply* with the values) around one
fancy index of the owners' elements.  :meth:`DistVector.scatter_update` is
the same plan with two sends (indices, values) and no reply, each owner
keeping the minimum (LACC's hooking): one ``minimum.at``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import DistributionError
from ..mpi.comm import RankBlocks, RoutePlan
from ..mpi.grid import ProcGrid

__all__ = ["DistVector"]


class DistVector:
    """A dense vector of length ``n`` split P ways over the grid's ranks.

    ``values`` holds every rank's block in rank order; rank ``r`` owns
    ``values[bounds[r]:bounds[r + 1]]``.
    """

    __slots__ = ("grid", "n", "values")

    def __init__(
        self, grid: ProcGrid, n: int, blocks: Sequence[np.ndarray]
    ) -> None:
        if len(blocks) != grid.nprocs:
            raise DistributionError(
                f"expected {grid.nprocs} blocks, got {len(blocks)}"
            )
        blocks = RankBlocks.of(blocks)
        bounds = grid.vec_bounds(n)
        if not np.array_equal(blocks.bounds, bounds):
            sizes, want = blocks.sizes(), np.diff(bounds)
            rank = int(np.flatnonzero(sizes != want)[0])
            raise DistributionError(
                f"rank {rank} block has {sizes[rank]} elements, "
                f"expected {want[rank]}"
            )
        self.grid = grid
        self.n = int(n)
        self.values = blocks.flat

    # -- constructors -----------------------------------------------------
    @classmethod
    def _of(cls, grid: ProcGrid, values: np.ndarray) -> "DistVector":
        vec = cls.__new__(cls)
        vec.grid, vec.n, vec.values = grid, int(values.shape[0]), values
        return vec

    @classmethod
    def from_global(cls, grid: ProcGrid, arr: np.ndarray) -> "DistVector":
        """Distribute a global array (testing / root-side convenience)."""
        return cls._of(grid, np.array(arr))

    @classmethod
    def full(cls, grid: ProcGrid, n: int, fill, dtype) -> "DistVector":
        return cls._of(grid, np.full(n, fill, dtype=dtype))

    @classmethod
    def zeros(cls, grid: ProcGrid, n: int, dtype=np.int64) -> "DistVector":
        return cls.full(grid, n, 0, dtype)

    @classmethod
    def arange(cls, grid: ProcGrid, n: int) -> "DistVector":
        """The identity map: element i holds i (seed of pointer-jumping)."""
        return cls._of(grid, np.arange(n, dtype=np.int64))

    # -- basics ---------------------------------------------------------
    @property
    def bounds(self) -> np.ndarray:
        """The P + 1 block boundaries (shared and read-only)."""
        return self.grid.vec_bounds(self.n)

    @property
    def blocks(self) -> RankBlocks:
        """Per-rank views of ``values``: writing into one writes the vector."""
        return RankBlocks(self.values, self.bounds)

    def to_global(self) -> np.ndarray:
        """A copy of the whole vector (test/report convenience, no cost)."""
        return self.values.copy()

    def local_range(self, rank: int) -> tuple[int, int]:
        return self.grid.vec_block(self.n, rank)

    def map(self, func: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "DistVector":
        """Elementwise transform: ``func(block, global_indices) -> block``,
        applied to every rank's block in one call."""
        out = np.asarray(func(self.values, np.arange(self.n, dtype=np.int64)))
        self.grid.world.charge_compute_all(np.diff(self.bounds))
        return DistVector._of(self.grid, out)

    def select_global_indices(self, pred: Callable[[np.ndarray], np.ndarray]) -> RankBlocks:
        """Per-rank global indices where ``pred(block)`` holds.

        This is the element-wise selection of §4.2 that extracts branching
        vertices (``degree >= 3``) from the degree vector.
        """
        hits = np.flatnonzero(np.asarray(pred(self.values), dtype=bool))
        bounds = self.bounds
        self.grid.world.charge_compute_all(np.diff(bounds))
        return RankBlocks(hits, np.searchsorted(hits, bounds))

    # -- communication --------------------------------------------------
    def route(self, indices: Sequence[np.ndarray]) -> RoutePlan:
        """The plan sending every rank's global indices to their owners
        (range-checked: nothing is routed or charged on a bad index); pass
        it as ``gather(indices, plan=...)`` to fetch the same indices again."""
        indices = RankBlocks.of(indices)
        flat = indices.flat
        if flat.size and (flat.min() < 0 or flat.max() >= self.n):
            raise DistributionError(f"index out of range [0, {self.n})")
        owners = self.grid.vec_owners(self.n).take(flat)
        return self.grid.world.comm.route(RankBlocks(owners, indices.bounds))

    def gather(
        self, requests: Sequence[np.ndarray], plan: RoutePlan | None = None
    ) -> RankBlocks:
        """Fetch remote elements by global index for every rank.

        ``requests[r]`` is rank r's array of global indices; the result's
        r-th entry holds the corresponding values in request order.  One
        route plan: requests sent to owners, owners reply with values.
        ``plan`` (optional) is this vector's :meth:`route` of ``requests``.
        """
        grid, world = self.grid, self.grid.world
        if len(requests) != grid.nprocs:
            raise DistributionError(f"expected {grid.nprocs} request arrays")
        requests = RankBlocks.of(requests, dtype=np.int64)
        if plan is None:
            plan = self.route(requests)
        world.charge_compute_all(requests.sizes())
        (asked,) = plan.send(requests)
        answers = RankBlocks(self.values.take(asked.flat), asked.bounds)
        world.charge_compute_all(asked.sizes())
        return plan.reply(answers)

    def scatter_update(
        self, indices: Sequence[np.ndarray], values: Sequence[np.ndarray]
    ) -> None:
        """Route (index, value) updates to owners, each keeping the minimum
        of its element and every value sent to it (LACC's hooking).

        Arguments are validated before anything is sent or written.
        """
        world = self.grid.world
        indices = RankBlocks.of(indices, dtype=np.int64)
        values = RankBlocks.of(values)
        if len(indices) != len(values) or not np.array_equal(
            indices.bounds, values.bounds
        ):
            raise DistributionError("indices/values length mismatch")
        plan = self.route(indices)
        world.charge_compute_all(indices.sizes())
        (recv_i,) = plan.send(indices)
        (recv_v,) = plan.send(values)
        np.minimum.at(self.values, recv_i.flat, recv_v.flat)
        world.charge_compute_all(recv_i.sizes())
