"""Rank steps: the local half of a superstep, and its per-rank accounting.

Every superstep of the simulated pipeline has the same shape: each rank
performs *local* work on its own block, then a collective moves data
between ranks.  The collectives live in :class:`~repro.mpi.comm.SimComm`;
this module holds the other half.  A superstep's per-rank work is
expressed as data -- a step callable plus per-rank argument lists -- in
one of two shapes:

* a :data:`RankStep` is called once per rank
  (:meth:`~repro.mpi.comm.SimWorld.map_ranks`);
* a :data:`SegmentStep` is called once over all ranks with their
  contexts and argument lists
  (:meth:`~repro.mpi.comm.SimWorld.map_segments`), for steps whose cost
  is per-call overhead rather than arithmetic: one wide kernel call
  serves every rank.

Either shape runs on the calling thread: rank steps one after another in
rank order, a segment step once over ``[0, P)``.  All cost accounting
(compute charges, memory observations, kernel sections) is buffered per
rank in a :class:`RankContext` and merged into the world's clocks in rank
order at the superstep barrier, so a failed superstep charges nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, NamedTuple, Protocol, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .comm import SimWorld

__all__ = [
    "RankContext",
    "RankStep",
    "SegmentStep",
    "KernelSpan",
]


class KernelSpan(NamedTuple):
    """One finished :meth:`RankContext.span` section."""

    name: str
    #: the stage the section closed under
    stage: str
    #: compute seconds charged inside the section (its modeled width)
    modeled: float
    wall: float


class RankContext(int):
    """One rank's view of a superstep: its id plus buffered accounting.

    The context *is* the rank id (an ``int`` subclass), so step functions
    can index per-rank state with it directly.  Cost accounting goes
    through the context instead of the world: charges and memory samples
    are buffered locally and merged into the world's
    :class:`~repro.mpi.stats.StageClock` / memory meter in rank order at
    the superstep barrier -- and only if every rank's step succeeded.
    """

    def __new__(cls, world: "SimWorld", rank: int, base_stage: Sequence[str]):
        self = super().__new__(cls, rank)
        self._world = world
        self._machine = world.machine
        self._stack = list(base_stage)
        self._compute: list[tuple[str, float]] = []
        self._memory: list[tuple[str, float]] = []
        #: named kernel sections opened via :meth:`span`, in completion
        #: order, buffered exactly like compute charges
        self._spans: list[KernelSpan] = []
        return self

    @property
    def rank(self) -> int:
        return int(self)

    @property
    def world(self) -> "SimWorld":
        return self._world

    @property
    def stage(self) -> str:
        """The stage charges are currently attributed to (innermost scope)."""
        return self._stack[-1]

    @contextmanager
    def stage_scope(self, name: str) -> Iterator[None]:
        """Attribute this rank's charges inside the block to stage ``name``.

        Nested scopes compose exactly like
        :meth:`~repro.mpi.comm.SimWorld.stage_scope`, but the stack is
        private to the rank and never touches the world's.
        """
        self._stack.append(name)
        try:
            yield
        finally:
            self._stack.pop()

    def charge_compute(self, ops: float, kind: str = "default") -> None:
        """Charge ``ops`` elementary operations of local work to this rank."""
        seconds = self._machine.op_time(ops, kind=kind)
        if seconds:
            self._compute.append((self.stage, seconds))

    def observe_memory(self, nbytes: float) -> None:
        """Record one working-set sample for this rank under the current stage."""
        self._memory.append((self.stage, nbytes))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Mark a named kernel section of this rank's step.

        The section's *modeled* width is the compute seconds charged
        inside the block (so it nests correctly in the rank's superstep
        lane); wall time is measured alongside for profiling.  Sections
        are flat -- nest stage scopes, not spans.
        """
        import time as _time

        modeled0 = sum(sec for _, sec in self._compute)
        wall0 = _time.perf_counter()
        try:
            yield
        finally:
            modeled = sum(sec for _, sec in self._compute) - modeled0
            self._spans.append(
                KernelSpan(
                    name, self.stage, modeled, _time.perf_counter() - wall0,
                )
            )

    def record_span(self, name: str, wall: float) -> None:
        """Record a finished kernel section that served this rank inside a
        segment step, ``wall`` being this rank's share of its wall time.

        The section is shared by the segment's ranks, so none of this
        rank's charges falls inside it: its modeled width is 0.
        """
        self._spans.append(KernelSpan(name, self.stage, 0.0, wall))

    def _merge(self) -> None:
        """Apply the buffered charges to the world (rank-ordered barrier merge)."""
        world = self._world
        scale = world.machine.volume_scale
        rank = int(self)
        with world.account_lock:
            for stage, seconds in self._compute:
                world.clock.charge_compute(stage, rank, seconds)
            for stage, nbytes in self._memory:
                world.memory.observe(rank, nbytes * scale, stage=stage)
        self._compute.clear()
        self._memory.clear()
        self._spans.clear()


class RankStep(Protocol):
    """The superstep protocol: one rank's local work.

    Called once per rank as ``step(ctx, *args)`` where ``ctx`` is the
    :class:`RankContext` (usable directly as the rank integer) and
    ``args`` are that rank's entries of the per-rank argument lists given
    to :meth:`~repro.mpi.comm.SimWorld.map_ranks`.  The return value is
    collected in rank order.  Steps must only touch rank-private state
    -- their arguments and what they return -- and must route all cost
    accounting through ``ctx``: ranks share nothing, as MPI processes do.
    Prefer module-level functions (or ``functools.partial`` of them)
    taking state through per-rank arguments over closures that mutate
    enclosing scopes.
    """

    def __call__(self, ctx: RankContext, *args: Any) -> Any: ...


class SegmentStep(Protocol):
    """The segment protocol: the local work of every rank in one call.

    Called as ``step(ctxs, *arg_lists)`` where ``ctxs`` are the ranks'
    :class:`RankContext` objects in rank order and each of ``arg_lists``
    holds one per-rank argument list given to
    :meth:`~repro.mpi.comm.SimWorld.map_segments`.  It returns one result
    per rank, in rank order, and charges each rank through that rank's
    own context, so accounting is what a :class:`RankStep` would buffer.
    The rules of :class:`RankStep` apply.
    """

    def __call__(self, ctxs: list[RankContext], *arg_lists: list[Any]) -> list[Any]: ...
