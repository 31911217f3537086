"""Lockstep SPMD communicator simulating MPI inside one Python process.

Real ELBA runs one MPI rank per core; here the whole rank set is simulated
deterministically.  Distributed algorithms are written in bulk-synchronous
style: a loop over ranks performs each rank's *local* computation on its own
block, then a single collective call moves data between ranks.  Collectives
take per-rank inputs (a list indexed by communicator-local rank), return
per-rank outputs, move the payloads byte-exactly, and charge modeled seconds
from the active :class:`~repro.mpi.costmodel.MachineModel` to every
participating rank under the currently open pipeline stage.

Conventions follow mpi4py where sensible: ``bcast``/``allgather``/
``alltoall`` communicate generic objects; sizes are computed from NumPy
buffer lengths where available.  Returned objects may alias the sender's
objects (the simulator lives in one address space); distributed code must
not mutate received payloads in place, mirroring MPI's treatment of receive
buffers as owned data.

The move every distributed data structure here is built from -- *compute
locally, send each row to the rank that owns it, sometimes answer back* --
is :meth:`SimComm.route`: the caller names a destination rank per row, and
the returned :class:`RoutePlan` sends any number of row-aligned columns
-- NumPy arrays, or ragged ``(values, offsets)`` pairs such as packed reads
-- in one ``alltoallv`` (``send``) and returns answers in request order
(``reply``), each through one receiver-major permutation of all rows.
``alltoall`` is the generic-object form of the same collective, kept as
the reference the route tests compare against.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from ..errors import CommunicatorError
from ..telemetry.metrics import get_registry
from ..util import cumsum0, gather_pieces
from .costmodel import MachineModel, zero_cost
from .executor import (
    Executor,
    RankContext,
    RankStep,
    _RemoteGuardedStep,
    make_executor,
)
from .memory import MemoryMeter
from .stats import CommEvent, CommLog, StageClock

__all__ = [
    "payload_nbytes",
    "SimWorld",
    "SimComm",
    "RoutePlan",
    "block_range",
    "block_sizes",
]


def payload_nbytes(obj: Any) -> int:
    """Approximate wire size of a payload in bytes.

    NumPy arrays and ``bytes`` report exact buffer sizes; containers sum
    their elements; scalars count as 8 bytes.  This is the size the cost
    model charges for -- a faithful proxy for what mpi4py would serialize.
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview, str)):
        return len(obj)
    if isinstance(obj, (int, float, np.integer, np.floating, bool)):
        return 8
    if isinstance(obj, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return sum(payload_nbytes(x) for x in obj)
    # dataclass-like objects: charge for their public attributes
    if hasattr(obj, "__dict__"):
        return payload_nbytes(vars(obj))
    return 8


def block_range(n: int, parts: int, index: int) -> tuple[int, int]:
    """Half-open range ``[lo, hi)`` of block ``index`` when ``n`` items are
    split into ``parts`` near-equal consecutive blocks (remainder spread over
    the leading blocks, the standard MPI block distribution)."""
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if not 0 <= index < parts:
        raise IndexError(f"block index {index} out of range [0, {parts})")
    base, rem = divmod(n, parts)
    lo = index * base + min(index, rem)
    hi = lo + base + (1 if index < rem else 0)
    return lo, hi


def block_sizes(n: int, parts: int) -> np.ndarray:
    """Sizes of all blocks of the distribution used by :func:`block_range`."""
    base, rem = divmod(n, parts)
    sizes = np.full(parts, base, dtype=np.int64)
    sizes[:rem] += 1
    return sizes


def block_owner(n: int, parts: int, index: np.ndarray | int):
    """Owner block of item ``index`` under the :func:`block_range` layout."""
    base, rem = divmod(n, parts)
    idx = np.asarray(index, dtype=np.int64)
    split = (base + 1) * rem  # first item owned by a small block
    if base == 0:
        owner = np.where(idx < split, idx // max(base + 1, 1), rem)
    else:
        owner = np.where(
            idx < split,
            idx // (base + 1),
            rem + (idx - split) // base,
        )
    return owner if isinstance(index, np.ndarray) else int(owner)


class SimWorld:
    """The simulated machine: P ranks, a cost model, clocks and logs.

    ``executor`` selects the backend that runs per-rank local compute
    submitted through :meth:`map_ranks` -- ``"serial"`` (the default and
    the reference: ranks in order on the calling thread) or ``"process"``
    (a persistent spawn-safe process pool).  Backends are observationally
    identical: artifacts, clocks and logs do not depend on the choice.
    """

    def __init__(
        self,
        nprocs: int,
        machine: MachineModel | None = None,
        executor: "str | Executor" = "serial",
    ) -> None:
        if nprocs < 1:
            raise CommunicatorError(f"world size must be >= 1, got {nprocs}")
        self.nprocs = nprocs
        self.machine = machine if machine is not None else zero_cost()
        self.clock = StageClock(nprocs)
        self.log = CommLog()
        self.memory = MemoryMeter(nprocs)
        #: one lock funnels every clock/log/memory mutation, so collectives
        #: and charges issued from several threads cannot corrupt
        #: the shared accounting state
        self.account_lock = threading.RLock()
        self._stage_local = threading.local()
        self._stage_local.stack = ["default"]
        self._in_rank_step = threading.local()
        #: optional FaultInjector consulted at every superstep boundary
        #: (duck-typed so the MPI layer stays decoupled from repro.faults)
        self.fault_injector = None
        #: optional :class:`~repro.telemetry.spans.Tracer` recording a
        #: span per superstep/collective/stall on the modeled clock
        #: (attached via ``Tracer.attach``; every hook is a None-guard so
        #: untraced runs pay one attribute read per site)
        self.tracer = None
        self._executor = make_executor(executor)
        self.comm = SimComm(self, list(range(nprocs)), label="world")

    # -- stage scoping ----------------------------------------------------
    @property
    def _stage_stack(self) -> list[str]:
        """The calling thread's stage stack.

        Each thread scopes independently: a worker thread that never
        opened a scope charges to ``"default"`` rather than racing on the
        main thread's stack.  (Rank steps should scope via their
        :class:`~repro.mpi.executor.RankContext`, which snapshots the
        submitting thread's stack instead.)
        """
        stack = getattr(self._stage_local, "stack", None)
        if stack is None:
            stack = ["default"]
            self._stage_local.stack = stack
        return stack

    @property
    def stage(self) -> str:
        return self._stage_stack[-1]

    @contextmanager
    def stage_scope(self, name: str) -> Iterator[None]:
        """Attribute all charges inside the block to pipeline stage ``name``."""
        stack = self._stage_stack
        stack.append(name)
        try:
            yield
        finally:
            stack.pop()

    # -- per-rank compute (the executor API) -------------------------------
    @property
    def executor(self) -> Executor:
        """The backend running :meth:`map_ranks` supersteps."""
        return self._executor

    def use_executor(self, spec: "str | Executor") -> None:
        """Swap the per-rank compute backend (any
        :data:`~repro.mpi.executor.EXECUTOR_BACKENDS` name or instance).

        The replaced executor is shut down so a retired pool's workers
        exit deterministically rather than waiting for GC (``shutdown``
        is idempotent and pools rebuild lazily on reuse).
        """
        new = make_executor(spec)
        if new is not self._executor:
            self._executor.shutdown()
        self._executor = new

    def map_ranks(self, fn: RankStep, *per_rank_args: Sequence[Any]) -> list[Any]:
        """Run ``fn(ctx, *args)`` for every rank through the executor.

        Each of ``per_rank_args`` is a length-``nprocs`` sequence; rank
        ``r`` receives entry ``r`` of every sequence.  ``ctx`` is a
        :class:`~repro.mpi.executor.RankContext` -- the rank id itself,
        plus ``charge_compute`` / ``observe_memory`` / ``stage_scope``
        methods that buffer cost accounting per rank and merge it into
        the world's clocks in rank order once all ranks finish.  Results
        come back in rank order regardless of backend, so a superstep
        behaves identically under ``serial`` and ``process`` execution.

        The process backend receives the step and tasks *pickled*
        (contexts travel detached; buffered accounting records splice
        back before the merge), so steps bound for it must avoid
        capturing worlds, locks or open handles and must not rely on
        mutating enclosing scopes -- pass state through per-rank
        arguments and return it instead.

        Accounting is transactional per superstep: if any rank's step
        raises, the exception propagates (lowest failing rank first,
        after all ranks drain) and *no* buffered charges are merged --
        a failed superstep charges nothing on any backend.
        """
        # nesting is always a bug: a step has no business launching a
        # superstep of its own
        self._check_not_in_rank_step("SimWorld.map_ranks")
        for pos, seq in enumerate(per_rank_args):
            if len(seq) != self.nprocs:
                raise CommunicatorError(
                    f"map_ranks arg {pos} expects {self.nprocs} per-rank "
                    f"entries, got {len(seq)}"
                )
        base_stage = tuple(self._stage_stack)
        ctxs = [RankContext(self, r, base_stage) for r in range(self.nprocs)]
        tasks = [
            (ctxs[r], tuple(seq[r] for seq in per_rank_args))
            for r in range(self.nprocs)
        ]

        # fault injection decisions are made once per superstep, before
        # the executor launches anything, so every backend sees the same
        # crashes (raised inside the step, so accounting stays
        # transactional) and the same stragglers (charged after success)
        crash_excs: dict[int, Exception] = {}
        stall_actions: list[dict] = []
        injector = self.fault_injector
        if injector is not None:
            for action in injector.superstep_actions(base_stage):
                if action["kind"] == "rank_crash":
                    crash_excs[action["rank"]] = injector.crash_failure(
                        action
                    )
                else:
                    stall_actions.append(action)

        if getattr(self._executor, "in_process", True):
            # while a step runs in-process, direct world accounting is
            # an error (a detached step could not do it at all; raising
            # keeps the backend-identical contract enforceable)
            def _guarded(ctx, *args):
                prior = getattr(self._in_rank_step, "active", False)
                self._in_rank_step.active = True
                try:
                    exc = crash_excs.get(int(ctx))
                    if exc is not None:
                        raise exc
                    return fn(ctx, *args)
                finally:
                    self._in_rank_step.active = prior

            runner: Any = _guarded
        elif crash_excs:
            # worker processes have no world to guard (detached contexts
            # refuse collectives structurally); only the pre-decided
            # crash decisions need to travel with the step
            runner = _RemoteGuardedStep(fn, crash_excs)
        else:
            runner = fn

        wall0 = time.perf_counter()
        results = self._executor.run(runner, tasks)
        wall = time.perf_counter() - wall0
        tracer = self.tracer
        if tracer is not None:
            # read the buffered records before the merge clears them; the
            # records are rank-ordered and backend-independent, so the
            # resulting spans are too
            tracer.superstep(self.stage, ctxs, wall=wall)
        for ctx in ctxs:
            ctx._merge()
        metrics = get_registry()
        metrics.counter("mpi.supersteps").inc()
        metrics.histogram("mpi.superstep_wall_seconds").observe(wall)
        for action in stall_actions:
            if 0 <= action["rank"] < self.nprocs:
                with self.account_lock:
                    self.clock.charge_compute(
                        self.stage, action["rank"], action["seconds"]
                    )
                if tracer is not None:
                    tracer.stall(self.stage, action["rank"], action["seconds"])
        return results

    def _check_not_in_rank_step(self, what: str) -> None:
        if getattr(self._in_rank_step, "active", False):
            raise CommunicatorError(
                f"{what} is not allowed inside a map_ranks step; charge "
                f"through the RankContext (ctx.charge_compute / "
                f"ctx.observe_memory) and keep collectives between supersteps"
            )

    # -- compute charging ---------------------------------------------------
    def charge_compute(self, rank: int, ops: float, kind: str = "default") -> None:
        """Charge ``ops`` elementary operations of local work to one rank."""
        self._check_not_in_rank_step("SimWorld.charge_compute")
        seconds = self.machine.op_time(ops, kind=kind)
        if seconds:
            with self.account_lock:
                self.clock.charge_compute(self.stage, rank, seconds)
            if self.tracer is not None:
                self.tracer.compute(rank, seconds)

    def charge_compute_all(self, ops_per_rank: Sequence[float], kind: str = "default") -> None:
        """Charge per-rank op counts in one vectorized clock call."""
        self._check_not_in_rank_step("SimWorld.charge_compute_all")
        if len(ops_per_rank) != self.nprocs:
            raise CommunicatorError(
                f"expected {self.nprocs} op counts, got {len(ops_per_rank)}"
            )
        seconds = self.machine.op_time_all(ops_per_rank, kind=kind)
        if seconds.any():
            with self.account_lock:
                self.clock.charge_compute_all(self.stage, seconds)
            if self.tracer is not None:
                self.tracer.compute_all(seconds)

    def observe_memory(self, rank: int, nbytes: float) -> None:
        """Record one working-set sample under the current stage, scaled by
        the machine's ``volume_scale`` (modeled bytes extrapolate to paper-
        sized inputs the same way modeled seconds do)."""
        self._check_not_in_rank_step("SimWorld.observe_memory")
        with self.account_lock:
            self.memory.observe(
                rank, nbytes * self.machine.volume_scale, stage=self.stage
            )

    def subcomm(self, ranks: Sequence[int], label: str = "sub") -> "SimComm":
        """Create a communicator over a subset of world ranks."""
        return SimComm(self, list(ranks), label=label)


class SimComm:
    """A communicator over a subset of the world's ranks.

    All collective methods take *per-local-rank* inputs ordered by the
    communicator's own rank numbering and return per-local-rank outputs.
    """

    def __init__(self, world: SimWorld, ranks: list[int], label: str = "comm") -> None:
        if not ranks:
            raise CommunicatorError("communicator must contain at least one rank")
        if len(set(ranks)) != len(ranks):
            raise CommunicatorError(f"duplicate ranks in communicator: {ranks}")
        for r in ranks:
            if not 0 <= r < world.nprocs:
                raise CommunicatorError(f"rank {r} outside world of {world.nprocs}")
        self.world = world
        self.ranks = list(ranks)
        self.label = label

    @property
    def size(self) -> int:
        return len(self.ranks)

    def local_rank(self, world_rank: int) -> int:
        """Translate a world rank into this communicator's numbering."""
        try:
            return self.ranks.index(world_rank)
        except ValueError:
            raise CommunicatorError(
                f"world rank {world_rank} not in communicator {self.label}"
            ) from None

    # ------------------------------------------------------------------
    def _check_input(self, per_rank: Sequence[Any], what: str) -> None:
        if len(per_rank) != self.size:
            raise CommunicatorError(
                f"{what} expects {self.size} per-rank entries, got {len(per_rank)}"
            )

    def _charge(self, op: str, total_bytes: int, max_bytes: int, messages: int) -> None:
        machine = self.world.machine
        if op == "ptp":
            seconds = machine.ptp_time(total_bytes, messages)
        else:
            seconds = machine.collective_time(op, self.size, total_bytes, max_bytes)
        # collectives are whole-world lockstep operations: between
        # supersteps only, never inside a rank step
        self.world._check_not_in_rank_step(f"collective {op!r}")
        # clock + log mutate under one lock so a collective issued from
        # another thread cannot interleave with another charge
        with self.world.account_lock:
            stage = self.world.stage
            self.world.clock.charge_comm_all(stage, seconds, ranks=self.ranks)
            self.world.log.record(
                CommEvent(
                    op=op,
                    stage=stage,
                    nprocs=self.size,
                    total_bytes=int(total_bytes),
                    max_bytes=int(max_bytes),
                    messages=messages,
                    modeled_seconds=seconds,
                )
            )
            tracer = self.world.tracer
            if tracer is not None:
                tracer.collective(
                    op,
                    stage,
                    self.ranks,
                    seconds,
                    int(total_bytes),
                    int(max_bytes),
                    messages,
                )
        metrics = get_registry()
        metrics.counter("comm.ops").inc()
        metrics.counter("comm.bytes").inc(total_bytes)
        metrics.counter("comm.modeled_seconds").inc(seconds)

    # -- collectives -----------------------------------------------------
    def barrier(self) -> None:
        self._charge("barrier", 0, 0, self.size)

    def bcast(self, obj: Any, root: int = 0) -> list[Any]:
        """Broadcast ``obj`` from local rank ``root``; returns one copy per rank."""
        if not 0 <= root < self.size:
            raise CommunicatorError(f"root {root} out of range [0, {self.size})")
        m = payload_nbytes(obj)
        self._charge("bcast", m * max(self.size - 1, 0), m, self.size - 1)
        return [obj] * self.size

    def gather(self, per_rank: Sequence[Any], root: int = 0) -> list[Any]:
        """Gather one object from each rank to ``root`` (returned as a list)."""
        self._check_input(per_rank, "gather")
        if not 0 <= root < self.size:
            raise CommunicatorError(f"root {root} out of range [0, {self.size})")
        sizes = [payload_nbytes(x) for x in per_rank]
        self._charge("gather", sum(sizes), max(sizes, default=0), self.size - 1)
        return list(per_rank)

    def allgather(self, per_rank: Sequence[Any]) -> list[Any]:
        """Every rank receives the full list of per-rank objects."""
        self._check_input(per_rank, "allgather")
        sizes = [payload_nbytes(x) for x in per_rank]
        self._charge("allgather", sum(sizes), max(sizes, default=0), self.size - 1)
        return list(per_rank)

    def scatter(self, objs: Sequence[Any], root: int = 0) -> list[Any]:
        """Rank ``root`` distributes one object to each rank."""
        self._check_input(objs, "scatter")
        sizes = [payload_nbytes(x) for x in objs]
        self._charge("scatter", sum(sizes), max(sizes, default=0), self.size - 1)
        return list(objs)

    def alltoall(self, send: Sequence[Sequence[Any]]) -> list[list[Any]]:
        """Personalized all-to-all: ``recv[j][i] = send[i][j]``."""
        self._check_input(send, "alltoall")
        for i, row in enumerate(send):
            if len(row) != self.size:
                raise CommunicatorError(
                    f"alltoall send row {i} has {len(row)} entries, expected {self.size}"
                )
        per_rank_bytes = [
            sum(payload_nbytes(x) for j, x in enumerate(row) if j != i)
            for i, row in enumerate(send)
        ]
        self._charge(
            "alltoallv",
            sum(per_rank_bytes),
            max(per_rank_bytes, default=0),
            self.size * (self.size - 1),
        )
        return [[send[i][j] for i in range(self.size)] for j in range(self.size)]

    def route(self, dests: Iterable[np.ndarray]) -> "RoutePlan":
        """Plan an owner-routed exchange: ``dests[r][k]`` is the local rank
        that row ``k`` of rank ``r`` goes to.

        Planning is local and records nothing; the returned
        :class:`RoutePlan` moves any number of row-aligned columns
        (:meth:`RoutePlan.send`) and carries answers back in request order
        (:meth:`RoutePlan.reply`), one ``alltoallv`` event each.  ``dests``
        may be any iterable of P integer arrays.
        """
        return RoutePlan(self, dests)

    def allreduce(self, per_rank: Sequence[Any], op: Callable[[Any, Any], Any]) -> Any:
        """Reduce per-rank values with ``op``; every rank gets the result."""
        self._check_input(per_rank, "allreduce")
        sizes = [payload_nbytes(x) for x in per_rank]
        self._charge("allreduce", sum(sizes), max(sizes, default=0), self.size - 1)
        return functools.reduce(op, per_rank)

    def reduce(self, per_rank: Sequence[Any], op: Callable[[Any, Any], Any], root: int = 0) -> Any:
        """Reduce per-rank values to ``root``."""
        self._check_input(per_rank, "reduce")
        if not 0 <= root < self.size:
            raise CommunicatorError(f"root {root} out of range [0, {self.size})")
        sizes = [payload_nbytes(x) for x in per_rank]
        self._charge("reduce", sum(sizes), max(sizes, default=0), self.size - 1)
        return functools.reduce(op, per_rank)

    def reduce_scatter(
        self,
        per_rank_arrays: Sequence[np.ndarray],
        block_sizes: Sequence[int] | None = None,
    ) -> list[np.ndarray]:
        """Elementwise-sum P same-length arrays, scatter result blocks.

        This is the collective the paper uses to turn per-rank local contig
        size counts into a distributed map of global contig sizes (§4.2).
        ``block_sizes`` overrides the default near-equal split (callers with
        a nested grid layout pass their own block sizes).
        """
        self._check_input(per_rank_arrays, "reduce_scatter")
        if block_sizes is not None:
            if len(block_sizes) != self.size:
                raise CommunicatorError(
                    f"reduce_scatter expects {self.size} block sizes, "
                    f"got {len(block_sizes)}"
                )
            if any(int(s) < 0 for s in block_sizes):
                raise CommunicatorError(
                    f"reduce_scatter block sizes must be >= 0, got {list(block_sizes)}"
                )
        first = np.asarray(per_rank_arrays[0])
        total = first.copy()
        for arr in per_rank_arrays[1:]:
            arr = np.asarray(arr)
            if arr.shape != first.shape:
                raise CommunicatorError(
                    f"reduce_scatter shape mismatch: {arr.shape} vs {first.shape}"
                )
            total = total + arr
        nbytes = sum(int(np.asarray(a).nbytes) for a in per_rank_arrays)
        self._charge("reduce_scatter", nbytes, int(first.nbytes), self.size - 1)
        n = total.shape[0]
        if block_sizes is None:
            bounds = [block_range(n, self.size, i)[0] for i in range(self.size)] + [n]
        elif int(sum(block_sizes)) == n:
            bounds = cumsum0(block_sizes).tolist()
        else:
            raise CommunicatorError(f"block sizes sum to {sum(block_sizes)}, expected {n}")
        return [total[lo:hi].copy() for lo, hi in zip(bounds[:-1], bounds[1:])]

    # -- point-to-point ----------------------------------------------------
    def sendrecv(self, payloads: Sequence[Any], partners: Sequence[int]) -> list[Any]:
        """Pairwise exchange: rank ``i`` sends ``payloads[i]`` to local rank
        ``partners[i]`` and receives whatever its partner sent.

        ``partners`` must be an involution (``partners[partners[i]] == i``);
        a rank may partner with itself (no traffic charged for self-sends).
        This is the transposed-processor exchange of the induced-subgraph
        algorithm (Fig. 2 of the paper).
        """
        self._check_input(payloads, "sendrecv")
        self._check_input(partners, "sendrecv partners")
        for i, j in enumerate(partners):
            if not 0 <= j < self.size:
                raise CommunicatorError(f"partner {j} out of range")
            if partners[j] != i:
                raise CommunicatorError(
                    f"partners must be an involution: partners[{i}]={j} "
                    f"but partners[{j}]={partners[j]}"
                )
        sizes = [payload_nbytes(payloads[i]) for i, j in enumerate(partners) if i != j]
        if sizes:
            self._charge("ptp", sum(sizes), max(sizes), len(sizes))
        return [payloads[partners[i]] for i in range(self.size)]


class RoutePlan:
    """A planned owner-routed exchange (see :meth:`SimComm.route`).

    The one implementation of *send each row to the rank that owns it,
    sometimes answer back*.  A P x P count matrix says how many rows go
    where, which is what the event charges.  One stable sort of all ranks'
    destinations, concatenated in rank order, is the receiver-major
    permutation: it keeps each receiver's rows grouped by sender in each
    sender's order, and its inverse carries answers back -- one gather per
    receiver, however many of the P x P cells are empty.  A ragged
    column's values are never concatenated whole: they are read one piece
    per non-empty cell, and a ragged reply to a receiver that addressed its
    rows in ascending rank order (a fetch of sorted ids) is those pieces
    as they come, with no second gather.

    A column is, per rank, an array with one row per destination or -- a
    *ragged* column, for rows of varying length such as packed reads -- a
    ``(values, offsets)`` tuple with row ``k`` at
    ``values[offsets[k]:offsets[k + 1]]``; it is received in the same form.
    Receivers get fresh arrays (never views of a whole-world buffer) of the
    dtype ``np.concatenate`` gives over all senders' arrays, empty included.
    """

    __slots__ = ("comm", "counts", "_order", "_inverse")

    def __init__(self, comm: SimComm, dests: Iterable[np.ndarray]) -> None:
        P = comm.size
        # the narrowest dtype that holds a rank: 8- and 16-bit keys make
        # numpy's stable sort a radix sort, and the cast copies are small
        narrow = np.min_scalar_type(P)
        narrowed, counts = [], []
        for r, dest in enumerate(dests):
            dest = np.asarray(dest)
            if dest.size and dest.dtype.kind not in "iu":
                raise CommunicatorError(
                    f"route: rank {r} has {dest.dtype} destinations, not ranks"
                )
            if dest.size and not (0 <= dest.min() and dest.max() < P):
                raise CommunicatorError(
                    f"route: rank {r} has a destination outside [0, {P})"
                )
            narrowed.append(dest.astype(narrow, copy=False))
            counts.append(np.bincount(narrowed[-1], minlength=P))
        comm._check_input(narrowed, "route")
        self.comm = comm
        #: ``counts[r, o]``: rows rank ``r`` sends to rank ``o``
        self.counts = np.array(counts, dtype=np.int64)
        # the plan holds one entry per row for its whole life (and one more,
        # the inverse, from its first reply on)
        flat = np.concatenate(narrowed)
        index = np.int32 if flat.size < 2**31 else np.int64
        self._order = np.argsort(flat, kind="stable").astype(index)
        self._inverse = None

    def _exchange(self, columns: Sequence[Sequence[Any]], back: bool) -> list[list[Any]]:
        """Validate ``columns``, record their event and move them: from
        the senders to the receivers, or ``back`` from the receivers.

        The event is the one :meth:`SimComm.alltoall` records for the same
        rows: every source's off-diagonal row count times its bytes per
        row, plus, per ragged column, the values of those rows and one
        offsets array per message.  Nothing is recorded if a column is
        refused.
        """
        comm, P = self.comm, self.comm.size
        cells = self.counts.T if back else self.counts
        rows = cells.sum(axis=1)
        away = rows - cells.diagonal()
        rows = rows.tolist()
        # destination row i is source row perm[i] of a concatenated column
        perm = self._inverse if back else self._order
        sent = np.zeros(P, dtype=np.int64)
        checked: list[Any] = []
        for col in columns:
            comm._check_input(col, "route column")
            ragged = isinstance(col[0], tuple)
            kind = "a (values, offsets) pair" if ragged else "an array"
            for r, entry in enumerate(col):
                if isinstance(entry, tuple) != ragged or ragged and len(entry) != 2:
                    raise CommunicatorError(f"route: rank {r} column entry is not {kind}")
            if not ragged:
                col = [np.asarray(a) for a in col]
                for r, a in enumerate(col):
                    if a.shape[:1] != (rows[r],):
                        raise CommunicatorError(
                            f"route: rank {r} column has shape {a.shape}, "
                            f"expected {rows[r]} rows"
                        )
                sent += away * [a.itemsize * math.prod(a.shape[1:]) for a in col]
                checked.append(col)
                continue
            values, lengths, sizes = [], [], []
            for r, (v, o) in enumerate(col):
                v, o = np.asarray(v), np.asarray(o)
                n = np.diff(o) if o.shape == (rows[r] + 1,) else None
                if n is None or (o[0], o[-1]) != (0, len(v)) or (n < 0).any():
                    raise CommunicatorError(
                        f"route: rank {r} ragged column needs {rows[r] + 1} "
                        f"non-decreasing offsets spanning its {len(v)} values"
                    )
                values.append(v)
                lengths.append(n)
                sizes.append((o.itemsize, len(v), v.itemsize))
            lengths = np.concatenate(lengths)
            # cell[t, s]: first row of the rows s sends t in the receiver-major
            # order; a rank keeps the values of its own cell
            cell = cumsum0(self.counts.T.ravel())[:-1].reshape(P, P)
            ends, own = cumsum0(lengths if back else lengths[perm]), cell.diagonal()
            kept = ends[own + self.counts.diagonal()] - ends[own]
            offset_size, nvalues, value_size = np.array(sizes, dtype=np.int64).T
            sent += (away + P - 1) * offset_size + (nvalues - kept) * value_size
            checked.append((values, lengths, cell))
        comm._charge("alltoallv", int(sent.sum()), int(sent.max()), P * (P - 1))
        bounds = cumsum0(cells.sum(axis=0)).tolist()
        spans = list(zip(bounds[:-1], bounds[1:]))
        return [self._move(col, perm, spans, back) for col in checked]

    def _move(self, col: Any, perm: np.ndarray, spans: list, back: bool) -> list[Any]:
        """One checked column, gathered per destination.  A plain column is
        concatenated once (and freed on return, so columns are not all
        copied at once); a ragged column's values never are: a destination
        reads one piece per rank it has rows from."""
        if not isinstance(col, tuple):
            flat = np.concatenate(col)
            return [flat[perm[a:b]] for a, b in spans]
        (values, lengths, cell), counts = col, self.counts
        # rows tile each rank's values: a row starts where the rows before
        # it end, less the values of the ranks before
        first, base = cumsum0(lengths), cumsum0([len(v) for v in values])
        proto = [np.concatenate([v[:0] for v in values])]  # receivers' dtype
        out = []
        for d, (a, b) in enumerate(spans):
            rows, nz = perm[a:b], np.flatnonzero(counts[d] if back else counts[:, d])
            if back:
                # d's answers from one rank are one run of its values: pool
                # the runs, then gather them in d's row order -- unless d
                # addressed its rows in ascending rank order (a fetch of
                # sorted ids), when the pool already is its row order
                lo, hi = first[cell[nz, d]], first[cell[nz, d] + counts[d, nz]]
                pool = np.concatenate(
                    proto
                    + [values[o][x - base[o] : y - base[o]] for o, x, y in zip(nz, lo, hi)]
                )
                if (rows[1:] > rows[:-1]).all():
                    out.append((pool, cumsum0(lengths[rows])))
                    continue
                k = np.searchsorted(cell[nz, d], rows, side="right") - 1
                at = first[rows] - lo[k] + cumsum0(hi - lo)[k]
                out.append(gather_pieces(pool, at, lengths[rows]))
                continue
            # d's rows from one rank are one run of perm: one gather each
            runs = [perm[x : x + n] for x, n in zip(cell[d, nz], counts[nz, d])]
            pieces = [
                gather_pieces(values[s], first[r] - base[s], lengths[r])[0]
                for s, r in zip(nz, runs)
            ]
            out.append((np.concatenate(proto + pieces), cumsum0(lengths[rows])))
        return out

    def send(self, *columns: Sequence[Any]) -> tuple[list[Any], ...]:
        """Move row-aligned columns to their destinations in one event.

        ``columns[c][r]`` holds one row (first axis) per destination of
        rank ``r``.  Returns one per-receiver list per column: receiver
        ``o``'s array is the rows addressed to it, grouped by source rank
        with each sender's order kept.
        """
        return tuple(self._exchange(columns, back=False))

    def reply(self, answers: Sequence[Any]) -> list[Any]:
        """The trip back: ``answers[o]`` holds one row per row receiver
        ``o`` got from :meth:`send`, in that order.  Returns, per original
        sender, the answers to its rows in its own row order."""
        if self._inverse is None:
            order = self._order
            self._inverse = np.empty_like(order)
            self._inverse[order] = np.arange(len(order), dtype=order.dtype)
        (out,) = self._exchange((answers,), back=True)
        return out
