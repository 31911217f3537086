"""Block-distributed dense vectors over the process grid.

Vectors (degree vector **d**, contig-membership vector **v**, assignment
vector **p**, ...) are split P ways in rank order, each rank owning a
contiguous sub-block of ~n/P elements (§4.3; the boundaries are
:meth:`ProcGrid.vec_bounds <repro.mpi.grid.ProcGrid.vec_bounds>`).  The key
communication primitive is :meth:`DistVector.gather`: ranks fetch arbitrary
remote elements by global index -- the owner-computes pattern LACC and the
induced-subgraph function use -- as one
:meth:`SimComm.route <repro.mpi.comm.SimComm.route>` plan: *send* the
requests to their owners, *reply* with the values.
:meth:`DistVector.scatter_update` is the same plan with two sends (indices,
values) and no reply.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from ..errors import DistributionError
from ..mpi.comm import RoutePlan
from ..mpi.grid import ProcGrid

__all__ = ["DistVector"]


def _overwrite(block: np.ndarray, idx: np.ndarray, val: np.ndarray) -> None:
    block[idx] = val


#: ``scatter_update`` combine modes: ``apply(block, local_idx, values)``
_COMBINE = {"overwrite": _overwrite, "min": np.minimum.at, "add": np.add.at}


class DistVector:
    """A dense vector of length ``n`` split P ways over the grid's ranks."""

    __slots__ = ("grid", "n", "blocks")

    def __init__(self, grid: ProcGrid, n: int, blocks: list[np.ndarray]) -> None:
        if len(blocks) != grid.nprocs:
            raise DistributionError(
                f"expected {grid.nprocs} blocks, got {len(blocks)}"
            )
        for rank, (blk, size) in enumerate(zip(blocks, np.diff(grid.vec_bounds(n)))):
            if blk.shape[0] != size:
                raise DistributionError(
                    f"rank {rank} block has {blk.shape[0]} elements, "
                    f"expected {size}"
                )
        self.grid = grid
        self.n = int(n)
        self.blocks = blocks

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_global(cls, grid: ProcGrid, arr: np.ndarray) -> "DistVector":
        """Distribute a global array (testing / root-side convenience)."""
        arr = np.asarray(arr)
        bounds = grid.vec_bounds(arr.shape[0])
        blocks = [arr[lo:hi].copy() for lo, hi in zip(bounds[:-1], bounds[1:])]
        return cls(grid, arr.shape[0], blocks)

    @classmethod
    def full(cls, grid: ProcGrid, n: int, fill, dtype) -> "DistVector":
        sizes = np.diff(grid.vec_bounds(n))
        return cls(grid, n, [np.full(size, fill, dtype=dtype) for size in sizes])

    @classmethod
    def zeros(cls, grid: ProcGrid, n: int, dtype=np.int64) -> "DistVector":
        return cls.full(grid, n, 0, dtype)

    @classmethod
    def arange(cls, grid: ProcGrid, n: int) -> "DistVector":
        """The identity map: element i holds i (seed of pointer-jumping)."""
        bounds = grid.vec_bounds(n)
        blocks = [
            np.arange(lo, hi, dtype=np.int64)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        return cls(grid, n, blocks)

    # -- basics ---------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        return self.blocks[0].dtype if self.blocks else np.dtype(np.int64)

    def to_global(self) -> np.ndarray:
        """Concatenate all blocks (test/report convenience, no cost charged)."""
        return np.concatenate(self.blocks) if self.blocks else np.empty(0)

    def copy(self) -> "DistVector":
        return DistVector(self.grid, self.n, [b.copy() for b in self.blocks])

    def local_range(self, rank: int) -> tuple[int, int]:
        return self.grid.vec_block(self.n, rank)

    def map(self, func: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "DistVector":
        """Elementwise transform: ``func(block, global_indices) -> block``."""
        world = self.grid.world
        out = []
        for rank, blk in enumerate(self.blocks):
            lo, hi = self.local_range(rank)
            out.append(np.asarray(func(blk, np.arange(lo, hi, dtype=np.int64))))
        world.charge_compute_all([blk.shape[0] for blk in self.blocks])
        return DistVector(self.grid, self.n, out)

    def reduce(self, op: Callable[[np.ndarray], float], combine: Callable) -> float:
        """Two-level reduction: ``op`` per local block, ``combine`` across ranks."""
        world = self.grid.world
        locals_ = [op(blk) if blk.size else None for blk in self.blocks]
        world.charge_compute_all([blk.shape[0] for blk in self.blocks])
        present = [x for x in locals_ if x is not None]
        if not present:
            raise DistributionError("reduce over an empty vector")
        # every rank takes part in the one allreduce, an empty rank sending
        # a stand-in the size of the first held value (the charge); only
        # held values enter the combine
        stand_ins = [present[0] if x is None else x for x in locals_]
        world.comm.allreduce(stand_ins, lambda a, _b: a)
        return functools.reduce(combine, present)

    def select_global_indices(self, pred: Callable[[np.ndarray], np.ndarray]) -> list[np.ndarray]:
        """Per-rank global indices where ``pred(block)`` holds.

        This is the element-wise selection of §4.2 that extracts branching
        vertices (``degree >= 3``) from the degree vector.
        """
        world = self.grid.world
        out = []
        for rank, blk in enumerate(self.blocks):
            lo, _hi = self.local_range(rank)
            mask = np.asarray(pred(blk), dtype=bool)
            out.append(lo + np.flatnonzero(mask))
        world.charge_compute_all([blk.shape[0] for blk in self.blocks])
        return out

    # -- communication --------------------------------------------------
    def route(self, indices: Sequence[np.ndarray]) -> RoutePlan:
        """The plan sending every rank's global indices to their owners
        (range-checked: nothing is routed or charged on a bad index); pass
        it as ``gather(indices, plan=...)`` to fetch the same indices again."""
        for idx in indices:
            if idx.size and (idx.min() < 0 or idx.max() >= self.n):
                raise DistributionError(f"index out of range [0, {self.n})")
        # one rank's owners at a time, not a whole-world copy of the indices
        owners = (self.grid.owner_of_vec(self.n, idx) for idx in indices)
        return self.grid.world.comm.route(owners)

    def gather(
        self, requests: Sequence[np.ndarray], plan: RoutePlan | None = None
    ) -> list[np.ndarray]:
        """Fetch remote elements by global index for every rank.

        ``requests[r]`` is rank r's array of global indices; the result's
        r-th entry holds the corresponding values in request order.  One
        route plan: requests sent to owners, owners reply with values.
        ``plan`` (optional) is this vector's :meth:`route` of ``requests``.
        """
        grid, world = self.grid, self.grid.world
        if len(requests) != grid.nprocs:
            raise DistributionError(f"expected {grid.nprocs} request arrays")
        requests = [np.asarray(idx, dtype=np.int64) for idx in requests]
        if plan is None:
            plan = self.route(requests)
        world.charge_compute_all([idx.size for idx in requests])
        (asked,) = plan.send(requests)
        lows = grid.vec_bounds(self.n)
        answers = [blk[idx - lo] for blk, idx, lo in zip(self.blocks, asked, lows)]
        world.charge_compute_all([idx.size for idx in asked])
        return plan.reply(answers)

    def scatter_update(
        self,
        indices: Sequence[np.ndarray],
        values: Sequence[np.ndarray],
        combine: str = "overwrite",
    ) -> None:
        """Route (index, value) updates to owners and apply them in place.

        ``combine`` is ``"overwrite"`` (last writer wins deterministically in
        rank order), ``"min"``, or ``"add"`` -- the modes hooking and counting
        need.  Arguments are validated before anything is sent or written.
        """
        grid, world = self.grid, self.grid.world
        if combine not in _COMBINE:
            raise ValueError(f"unknown combine mode {combine!r}")
        indices = [np.asarray(idx, dtype=np.int64) for idx in indices]
        values = [np.asarray(val) for val in values]
        if [idx.shape for idx in indices] != [val.shape[:1] for val in values]:
            raise DistributionError("indices/values length mismatch")
        plan = self.route(indices)
        world.charge_compute_all([idx.size for idx in indices])
        (recv_i,) = plan.send(indices)
        (recv_v,) = plan.send(values)
        lows = grid.vec_bounds(self.n)
        for o, (idx, val) in enumerate(zip(recv_i, recv_v)):
            if idx.size:
                _COMBINE[combine](self.blocks[o], idx - lows[o], val)
        world.charge_compute_all([idx.size for idx in recv_i])
