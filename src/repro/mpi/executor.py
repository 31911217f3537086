"""Executor backends for per-rank (SPMD) local compute.

Every superstep of the simulated pipeline has the same shape: each rank
performs *local* work on its own block, then a collective moves data
between ranks.  The collectives were always centralized in
:class:`~repro.mpi.comm.SimComm`; this module centralizes the other half.
A superstep's per-rank work is expressed as data -- a step callable plus
per-rank argument lists -- in one of two shapes:

* a :data:`RankStep` is called once per rank
  (:meth:`~repro.mpi.comm.SimWorld.map_ranks`);
* a :data:`SegmentStep` is called once per contiguous rank range with
  that range's contexts and argument lists
  (:meth:`~repro.mpi.comm.SimWorld.map_segments`), for steps whose cost
  is per-call overhead rather than arithmetic: one wide kernel call
  serves every rank of the segment.

Either shape runs through one of two :class:`Executor` backends:

* ``serial`` -- ranks run one after another on the calling thread (a
  segment step runs once, over ``[0, P)``): the default, and the
  reference every test compares against;
* ``process`` -- ranks run on a persistent spawn-safe process pool
  (:class:`~repro.mpi.procexec.ProcessExecutor`), the paper's execution
  model (ranks are processes with private memory), with large read-only
  arrays shipped zero-copy via :mod:`~repro.mpi.shm`; a segment step runs
  once per worker chunk.

Measured on the ``BENCHMARK.json`` workloads (2 cores, see CHANGES.md):
``process`` wins when the work per superstep is large (1.35x on
``lowerr_diag_p16``, 1.06x on ``hierr_dp_p4``) and loses when supersteps
are many and tiny (0.53x on ``lowerr_budget_p16``, 0.97x on
``contig_sweep_p16``): each one pays pickling and a pool round-trip.

Backends and segmentations must be observationally identical: results
come back in rank order, and all cost accounting (compute charges,
memory observations, stage attribution) is buffered per rank in a
:class:`RankContext` and merged into the world's clocks in rank order at
the superstep barrier.
The process backend ships each rank a *detached* context -- the same
buffered records, minus the world reference -- gets one
:class:`RankOutcome` per rank back, and splices those records into the
parent-side contexts before that same merge, so a pipeline run produces
bit-identical artifacts and identical
:class:`~repro.mpi.stats.StageClock` / :class:`~repro.mpi.stats.CommLog`
contents whichever backend executes it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterator,
    NamedTuple,
    Protocol,
    Sequence,
)

from ..errors import CommunicatorError

if TYPE_CHECKING:  # pragma: no cover
    from .comm import SimWorld
    from .costmodel import MachineModel

__all__ = [
    "RankContext",
    "RankStep",
    "SegmentStep",
    "KernelSpan",
    "RankOutcome",
    "Executor",
    "SerialExecutor",
    "EXECUTOR_BACKENDS",
    "make_executor",
    "default_executor",
    "apply_remote_outcomes",
    "run_segment",
]


class KernelSpan(NamedTuple):
    """One finished :meth:`RankContext.span` section."""

    name: str
    #: the stage the section closed under
    stage: str
    #: compute seconds charged inside the section (its modeled width)
    modeled: float
    wall: float
    #: kernel tier that ran it, or None; kept out of the trace digest
    tier: str | None = None


@dataclass
class RankOutcome:
    """What one rank's step sends back from a worker process.

    Either ``error`` is set (the step raised; nothing else is meaningful)
    or ``result`` and the rank's buffered accounting records are.
    """

    result: Any = None
    compute: list[tuple[str, float]] = field(default_factory=list)
    memory: list[tuple[str, float]] = field(default_factory=list)
    spans: list[KernelSpan] = field(default_factory=list)
    error: BaseException | None = None


def _split_tier(name: str) -> tuple[str, str | None]:
    """``"<tier>:<kernel>"`` -> ``(kernel, tier)``; other names pass through."""
    from ..kernels import KERNEL_TIERS

    prefix, sep, rest = name.partition(":")
    if sep and prefix in KERNEL_TIERS:
        return rest, prefix
    return name, None


def _restore_context(rank, machine, stack, compute, memory, spans=()):
    """Rebuild a detached :class:`RankContext` on the far side of a pickle."""
    ctx = RankContext(None, rank, stack, machine=machine)
    ctx._compute = list(compute)
    ctx._memory = list(memory)
    ctx._spans = list(spans)
    return ctx


class RankContext(int):
    """One rank's view of a superstep: its id plus buffered accounting.

    The context *is* the rank id (an ``int`` subclass), so step functions
    can index per-rank state with it directly.  Cost accounting goes
    through the context instead of the world: charges and memory samples
    are buffered locally (no shared mutable state while ranks may be
    running in worker processes) and merged into the
    world's :class:`~repro.mpi.stats.StageClock` / memory meter in rank
    order at the superstep barrier -- making accounting bit-identical
    across executor backends.

    Contexts pickle *detached*: the buffered records, stage stack and
    :class:`~repro.mpi.costmodel.MachineModel` travel (``op_time`` is a
    pure function of the model's floats, so charges computed in a worker
    process match the parent bit-for-bit), but the world does not.
    Accessing :attr:`world` from a detached context raises -- collectives
    are whole-world lockstep operations and must not be issued from
    inside a rank step; they belong between supersteps.
    """

    def __new__(
        cls,
        world: "SimWorld | None",
        rank: int,
        base_stage: Sequence[str],
        machine: "MachineModel | None" = None,
    ):
        self = super().__new__(cls, rank)
        self._world = world
        if machine is None and world is not None:
            machine = world.machine
        if machine is None:
            raise CommunicatorError(
                "RankContext needs a world or an explicit machine model"
            )
        self._machine = machine
        self._stack = list(base_stage)
        self._compute: list[tuple[str, float]] = []
        self._memory: list[tuple[str, float]] = []
        #: named kernel sections opened via :meth:`span`, in completion
        #: order.  Buffered exactly like compute charges (and spliced
        #: back from worker processes the same way) so an attached
        #: tracer sees identical records on every backend.
        self._spans: list[KernelSpan] = []
        return self

    def __reduce__(self):
        return (
            _restore_context,
            (
                int(self),
                self._machine,
                tuple(self._stack),
                tuple(self._compute),
                tuple(self._memory),
                tuple(self._spans),
            ),
        )

    @property
    def rank(self) -> int:
        return int(self)

    @property
    def world(self) -> "SimWorld":
        if self._world is None:
            raise CommunicatorError(
                f"rank {int(self)} is running detached (out-of-process "
                "executor); the world and its collectives are only "
                "available between supersteps"
            )
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
        private to the rank, so concurrently running steps never see each
        other's scopes.
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
        lane on any backend); wall time is measured alongside for
        profiling.  Sections are flat -- nest stage scopes, not spans.

        A ``"<tier>:<kernel>"`` name (tier one of
        :data:`~repro.kernels.KERNEL_TIERS`) is split: the span is
        recorded under the bare kernel name with the tier in a separate
        channel that the tracer keeps **out of the digest** -- both
        kernel tiers produce identical trace digests while profiles
        still attribute wall time per tier.
        """
        import time as _time

        name, tier = _split_tier(name)
        modeled0 = sum(sec for _, sec in self._compute)
        wall0 = _time.perf_counter()
        try:
            yield
        finally:
            modeled = sum(sec for _, sec in self._compute) - modeled0
            self._spans.append(
                KernelSpan(
                    name, self.stage, modeled,
                    _time.perf_counter() - wall0, tier,
                )
            )

    def record_span(self, name: str, wall: float) -> None:
        """Record a finished kernel section that served this rank inside a
        segment step, ``wall`` being this rank's share of its wall time.

        The section is shared by the segment's ranks, so none of this
        rank's charges falls inside it: its modeled width is 0.  ``name``
        splits into kernel and tier as in :meth:`span`.
        """
        name, tier = _split_tier(name)
        self._spans.append(KernelSpan(name, self.stage, 0.0, wall, tier))

    def _merge(self) -> None:
        """Apply the buffered charges to the world (rank-ordered barrier merge)."""
        world = self.world
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
    (their arguments, their own slot of any shared list) and must route
    all cost accounting through ``ctx``.  A step destined for an
    out-of-process backend must additionally be picklable -- prefer
    module-level functions taking state through per-rank arguments over
    closures that mutate enclosing scopes (such mutations are silently
    lost across a process boundary).
    """

    def __call__(self, ctx: RankContext, *args: Any) -> Any: ...


class SegmentStep(Protocol):
    """The segment protocol: the local work of a contiguous rank range.

    Called as ``step(ctxs, *arg_lists)`` where ``ctxs`` are the range's
    :class:`RankContext` objects in rank order and each of ``arg_lists``
    holds the range's entries of one per-rank argument list given to
    :meth:`~repro.mpi.comm.SimWorld.map_segments`.  It returns one result
    per rank, in rank order, and charges each rank through that rank's
    own context, so accounting is what a :class:`RankStep` would buffer.
    The rules of :class:`RankStep` apply; in addition a step must give
    the same per-rank results and charges however the ranks are cut into
    segments (a backend chooses the cut).
    """

    def __call__(self, ctxs: list[RankContext], *arg_lists: list[Any]) -> list[Any]: ...


class _GuardedStep:
    """A superstep's step plus its pre-decided rank crashes.

    Crashes are decided once per superstep, in the parent, and raised
    inside the step, so a crashed superstep charges nothing on any
    backend; a segment step raises its lowest crashed rank's crash.  In
    process, ``guard`` (the world's thread-local in-step flag) is set
    while the step runs, so direct world accounting and collectives
    raise.  The guard does not travel across a pickle: worker processes
    have no world, and their detached contexts refuse it structurally.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        crash_excs: dict,
        segmented: bool,
        guard: Any = None,
    ) -> None:
        self.fn = fn
        self.crash_excs = crash_excs
        self.segmented = segmented
        self.guard = guard
        # keep serialization error labels pointing at the wrapped step
        self.__qualname__ = (
            getattr(fn, "__qualname__", None)
            or getattr(fn, "__name__", None)
            or repr(fn)
        )

    def __reduce__(self):
        return (type(self), (self.fn, self.crash_excs, self.segmented))

    def __call__(self, first: Any, *args: Any) -> Any:
        guard = self.guard
        if guard is None:
            return self._call(first, args)
        prior = getattr(guard, "active", False)
        guard.active = True
        try:
            return self._call(first, args)
        finally:
            guard.active = prior

    def _call(self, first: Any, args: tuple) -> Any:
        if self.crash_excs:
            ranks = [int(ctx) for ctx in first] if self.segmented else [int(first)]
            crashed = [r for r in ranks if r in self.crash_excs]
            if crashed:
                raise self.crash_excs[min(crashed)]
        return self.fn(first, *args)


def run_segment(
    fn: Callable[..., Any],
    tasks: Sequence[tuple[RankContext, tuple]],
) -> list[Any]:
    """Call segment step ``fn`` once over ``tasks`` (one contiguous rank
    range); returns its per-rank results, refusing a wrong count."""
    ctxs = [ctx for ctx, _args in tasks]
    arg_lists = [list(col) for col in zip(*(args for _ctx, args in tasks))]
    results = list(fn(ctxs, *arg_lists))
    if len(results) != len(ctxs):
        raise CommunicatorError(
            f"segment step returned {len(results)} results for "
            f"{len(ctxs)} ranks"
        )
    return results


def run_inline(
    fn: Callable[..., Any],
    tasks: Sequence[tuple[RankContext, tuple]],
    segmented: bool,
) -> list[Any]:
    """Run ``tasks`` on the calling thread: one segment, or rank by rank."""
    if segmented:
        return run_segment(fn, tasks)
    return [fn(ctx, *args) for ctx, args in tasks]


def apply_remote_outcomes(
    tasks: Sequence[tuple[RankContext, tuple]],
    outcomes: Sequence[RankOutcome],
) -> list[Any]:
    """Splice worker outcomes back into the parent-side contexts.

    ``outcomes`` is rank-ordered, one :class:`RankOutcome` per task.
    Matching the serial backend, every rank has already finished (the
    pool drained) and the lowest-ranked failure propagates; on failure
    nothing is spliced, so the superstep's transactional no-charge
    rollback holds.
    """
    if len(outcomes) != len(tasks):
        raise CommunicatorError(
            f"executor returned {len(outcomes)} outcomes for "
            f"{len(tasks)} rank tasks"
        )
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
    for (ctx, _args), outcome in zip(tasks, outcomes):
        ctx._compute.extend(outcome.compute)
        ctx._memory.extend(outcome.memory)
        ctx._spans.extend(outcome.spans)
    return [outcome.result for outcome in outcomes]


class Executor:
    """Strategy for running one superstep's rank tasks."""

    name: str = ""
    #: True when rank steps share the caller's address space.  Worlds use
    #: this to decide between closure-based step wrapping (free to capture
    #: anything) and pickled dispatch (steps validated as picklable).
    in_process: bool = True

    def run(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[tuple[RankContext, tuple]],
        segmented: bool = False,
    ) -> list[Any]:
        """Run ``fn(ctx, *args)`` for every task -- or, ``segmented``, the
        segment step ``fn`` once per contiguous run of tasks the backend
        chooses (:func:`run_segment`); results in task order."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release backend resources (workers, shared segments); idempotent."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class SerialExecutor(Executor):
    """The reference backend: ranks run in order on the calling thread, a
    segment step once over every rank."""

    name = "serial"

    def run(self, fn, tasks, segmented=False):
        return run_inline(fn, tasks, segmented)


#: Backend names, reference first.
EXECUTOR_BACKENDS = ("serial", "process")

# one shared instance per backend name: every world resolving "process"
# reuses the same lazily-built pool, bounding worker processes
# process-wide no matter how many SimWorlds a session creates (the pool
# rebuilds lazily after shutdown, so sharing is safe across world
# lifetimes)
_DEFAULT_INSTANCES: dict[str, Executor] = {}


def make_executor(spec: "str | Executor") -> Executor:
    """Resolve an executor spec to an instance.

    Backend *names* resolve to a process-shared default instance; pass a
    constructed :class:`Executor` (e.g. ``ProcessExecutor(max_workers=2)``)
    for a private one.
    """
    if isinstance(spec, Executor):
        return spec
    if not isinstance(spec, str) or spec not in EXECUTOR_BACKENDS:
        raise CommunicatorError(
            f"unknown executor backend {spec!r}; options: "
            f"{list(EXECUTOR_BACKENDS)}"
        )
    inst = _DEFAULT_INSTANCES.get(spec)
    if inst is None:
        if spec == SerialExecutor.name:
            inst = SerialExecutor()
        else:
            # imported on first use: procexec builds on this module
            from .procexec import ProcessExecutor

            inst = ProcessExecutor()
        _DEFAULT_INSTANCES[spec] = inst
    return inst


def default_executor() -> str:
    """The default backend name; the ``REPRO_EXECUTOR`` env var overrides
    it (how CI runs the whole suite under the process backend)."""
    return os.environ.get("REPRO_EXECUTOR", SerialExecutor.name)
