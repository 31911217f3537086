"""Rank steps: the local half of a superstep, and its per-rank accounting.

Every superstep of the simulated pipeline has the same shape: each rank
performs *local* work on its own block, then a collective moves data
between ranks.  The collectives live in :class:`~repro.mpi.comm.SimComm`;
this module holds the other half.  A superstep's per-rank work is
expressed as data -- a step callable plus per-rank argument lists.  The
superstep runs a :data:`SegmentStep`: one call over all ranks with their
contexts and argument lists
(:meth:`~repro.mpi.comm.SimWorld.map_segments`), so a step whose cost
is per-call overhead rather than arithmetic serves every rank with one
wide kernel call.  A :data:`RankStep` is the per-rank form
(:meth:`~repro.mpi.comm.SimWorld.map_ranks`): the same superstep calls
it once per rank, in rank order.

Everything runs on the calling thread.  All cost accounting (compute
charges, memory observations, kernel sections) is buffered per rank in a
:class:`RankContext`; at the superstep barrier the world applies the
buffers to its clocks in rank order, so a failed superstep charges
nothing.  A superstep's charges belong to the stage open when it starts:
a step cannot open a stage of its own.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, NamedTuple, Protocol

if TYPE_CHECKING:  # pragma: no cover
    from .costmodel import MachineModel

__all__ = [
    "RankContext",
    "RankStep",
    "SegmentStep",
    "KernelSpan",
]


class KernelSpan(NamedTuple):
    """One finished :meth:`RankContext.span` section."""

    name: str
    #: compute seconds charged inside the section (its modeled width)
    modeled: float
    wall: float


class RankContext(int):
    """One rank's view of a superstep: its id plus buffered accounting.

    The context *is* the rank id (an ``int`` subclass), so step functions
    can index per-rank state with it directly.  Cost accounting goes
    through the context instead of the world: charges and memory samples
    are buffered locally, and the world applies them to its
    :class:`~repro.mpi.stats.StageClock` / memory meter in rank order at
    the superstep barrier -- and only if every rank's step succeeded.
    All of them belong to the stage open when the superstep started.
    """

    def __new__(cls, rank: int, machine: "MachineModel"):
        self = super().__new__(cls, rank)
        self._machine = machine
        #: buffered compute seconds and memory samples, in charge order
        self._compute: list[float] = []
        self._memory: list[float] = []
        #: named kernel sections opened via :meth:`span`, in completion
        #: order, buffered exactly like compute charges
        self._spans: list[KernelSpan] = []
        return self

    def charge_compute(self, ops: float, kind: str = "default") -> None:
        """Charge ``ops`` elementary operations of local work to this rank."""
        seconds = self._machine.op_time(ops, kind=kind)
        if seconds:
            self._compute.append(seconds)

    def observe_memory(self, nbytes: float) -> None:
        """Record one working-set sample for this rank."""
        self._memory.append(nbytes)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Mark a named kernel section of this rank's step.

        The section's *modeled* width is the compute seconds charged
        inside the block (so it nests correctly in the rank's superstep
        lane); wall time is measured alongside for profiling.  Sections
        are flat.
        """
        import time as _time

        modeled0 = sum(self._compute)
        wall0 = _time.perf_counter()
        try:
            yield
        finally:
            modeled = sum(self._compute) - modeled0
            self._spans.append(
                KernelSpan(name, modeled, _time.perf_counter() - wall0)
            )

    def record_span(self, name: str, wall: float) -> None:
        """Record a finished kernel section that served this rank inside a
        segment step, ``wall`` being this rank's share of its wall time.

        The section is shared by the segment's ranks, so none of this
        rank's charges falls inside it: its modeled width is 0.
        """
        self._spans.append(KernelSpan(name, 0.0, wall))


class RankStep(Protocol):
    """The per-rank protocol: one rank's local work.

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
    """The superstep protocol: the local work of every rank in one call.

    Called as ``step(ctxs, *arg_lists)`` where ``ctxs`` are the ranks'
    :class:`RankContext` objects in rank order and each of ``arg_lists``
    holds one per-rank argument list given to
    :meth:`~repro.mpi.comm.SimWorld.map_segments`.  It returns one result
    per rank, in rank order, and charges each rank through that rank's
    own context, so accounting is what a :class:`RankStep` would buffer.
    The rules of :class:`RankStep` apply.
    """

    def __call__(self, ctxs: list[RankContext], *arg_lists: list[Any]) -> list[Any]: ...
