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

The local half of a superstep goes through :meth:`SimWorld.map_ranks`
(one step call per rank) or :meth:`SimWorld.map_segments` (one call over
every rank, for steps whose cost is per-call overhead); both
share one superstep -- validation, fault injection, the in-step guard,
the rank-ordered merge and the tracer record.  Everything runs on the
calling thread, so the world's clocks, log, stage stack and in-step
guard are plain attributes with no lock (see :mod:`~repro.mpi.executor`).
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from ..errors import CommunicatorError
from ..telemetry.metrics import get_registry
from ..util import cumsum0, gather_pieces
from .costmodel import MachineModel, zero_cost
from .executor import RankContext, RankStep, SegmentStep
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

    Per-rank local compute submitted through :meth:`map_ranks` /
    :meth:`map_segments` runs on the calling thread, in rank order.
    ``executor`` accepts only ``"serial"``, the one way supersteps run.
    """

    def __init__(
        self,
        nprocs: int,
        machine: MachineModel | None = None,
        executor: str = "serial",
    ) -> None:
        if nprocs < 1:
            raise CommunicatorError(f"world size must be >= 1, got {nprocs}")
        if executor != "serial":
            raise CommunicatorError(
                f"unknown executor {executor!r}; supersteps run serially"
            )
        self.nprocs = nprocs
        self.machine = machine if machine is not None else zero_cost()
        self.clock = StageClock(nprocs)
        self.log = CommLog()
        self.memory = MemoryMeter(nprocs)
        #: open stage names, innermost last; a superstep's charges belong
        #: to the stage open when it starts
        self._stage_stack = ["default"]
        #: set while a superstep's steps run: direct world accounting and
        #: collectives are then an error
        self._in_rank_step = False
        #: optional FaultInjector consulted at every superstep boundary
        #: (duck-typed so the MPI layer stays decoupled from repro.faults)
        self.fault_injector = None
        #: optional :class:`~repro.telemetry.spans.Tracer` recording a
        #: span per superstep/collective/stall on the modeled clock
        #: (attached via ``Tracer.attach``; every hook is a None-guard so
        #: untraced runs pay one attribute read per site)
        self.tracer = None
        self.comm = SimComm(self, list(range(nprocs)), label="world")

    # -- stage scoping ----------------------------------------------------
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

    # -- per-rank compute (supersteps) ------------------------------------
    def map_ranks(self, fn: RankStep, *per_rank_args: Sequence[Any]) -> list[Any]:
        """Run ``fn(ctx, *args)`` for every rank, in rank order.

        Each of ``per_rank_args`` is a length-``nprocs`` sequence; rank
        ``r`` receives entry ``r`` of every sequence.  ``ctx`` is a
        :class:`~repro.mpi.executor.RankContext` -- the rank id itself,
        plus ``charge_compute`` / ``observe_memory`` methods that buffer
        cost accounting per rank and merge it into the world's clocks in
        rank order once all ranks finish, under the stage open at launch.
        Results come back in rank order.  Ranks share nothing: a step takes its
        state through its per-rank arguments and returns it (see
        :class:`~repro.mpi.executor.RankStep`).

        Accounting is transactional per superstep: if a rank's step
        raises, the exception propagates (the lowest failing rank's, as
        ranks run in order) and *no* buffered charges are merged -- a
        failed superstep charges nothing.
        """
        return self._superstep(fn, per_rank_args, segmented=False)

    def map_segments(
        self, fn: SegmentStep, *per_rank_args: Sequence[Any]
    ) -> list[Any]:
        """Run ``fn(ctxs, *arg_lists)`` once, over every rank.

        The segment form of :meth:`map_ranks`, for supersteps whose cost
        is per-call overhead: ``fn`` is called once over ``[0, P)``.
        ``ctxs`` are the contexts in rank order and ``arg_lists`` the
        ``per_rank_args``; ``fn`` returns one result per rank and charges
        each rank through its own context (see
        :class:`~repro.mpi.executor.SegmentStep`).  Everything else --
        argument validation, fault injection (the segment raises its
        lowest crashed rank's crash), the in-step guard, the transactional
        rank-ordered merge and the tracer's superstep record -- is
        :meth:`map_ranks`'s.
        """
        return self._superstep(fn, per_rank_args, segmented=True)

    def _superstep(
        self, fn: Any, per_rank_args: Sequence[Sequence[Any]], segmented: bool
    ) -> list[Any]:
        """The superstep both :meth:`map_ranks` and :meth:`map_segments`
        run: ``fn`` per rank, or once over every rank when ``segmented``."""
        what = "map_segments" if segmented else "map_ranks"
        # nesting is always a bug: a step has no business launching a
        # superstep of its own
        self._check_not_in_rank_step(f"SimWorld.{what}")
        for pos, seq in enumerate(per_rank_args):
            if len(seq) != self.nprocs:
                raise CommunicatorError(
                    f"{what} arg {pos} expects {self.nprocs} per-rank "
                    f"entries, got {len(seq)}"
                )
        stage = self.stage
        machine = self.machine
        ctxs = [RankContext(r, stage, machine) for r in range(self.nprocs)]

        # fault injection decisions are made once per superstep, before
        # any step runs: crashes are raised in place of the crashed rank's
        # step (so accounting stays transactional), stragglers are charged
        # after success
        crash_excs: dict[int, Exception] = {}
        stall_actions: list[dict] = []
        injector = self.fault_injector
        if injector is not None:
            for action in injector.superstep_actions(self._stage_stack):
                if action["kind"] != "rank_crash":
                    stall_actions.append(action)
                elif 0 <= action["rank"] < self.nprocs:
                    crash_excs[action["rank"]] = injector.crash_failure(
                        action
                    )

        # while a step runs, direct world accounting and collectives are
        # an error: a rank charges through its context only
        self._in_rank_step = True
        wall0 = time.perf_counter()
        try:
            if segmented:
                if crash_excs:
                    raise crash_excs[min(crash_excs)]
                results = list(fn(ctxs, *[list(seq) for seq in per_rank_args]))
                if len(results) != self.nprocs:
                    raise CommunicatorError(
                        f"segment step returned {len(results)} results for "
                        f"{self.nprocs} ranks"
                    )
            else:
                results = []
                for r, ctx in enumerate(ctxs):
                    if r in crash_excs:
                        raise crash_excs[r]
                    results.append(fn(ctx, *[seq[r] for seq in per_rank_args]))
        finally:
            self._in_rank_step = False
        wall = time.perf_counter() - wall0
        tracer = self.tracer
        if tracer is not None:
            tracer.superstep(stage, ctxs, wall=wall)
        # the barrier: every rank succeeded, so apply the buffered charges
        # in rank order
        clock, memory = self.clock, self.memory
        scale = machine.volume_scale
        for rank, ctx in enumerate(ctxs):
            for seconds in ctx._compute:
                clock.charge_compute(stage, rank, seconds)
            for nbytes in ctx._memory:
                memory.observe(rank, nbytes * scale, stage=stage)
        metrics = get_registry()
        metrics.counter("mpi.supersteps").inc()
        metrics.histogram("mpi.superstep_wall_seconds").observe(wall)
        for action in stall_actions:
            if 0 <= action["rank"] < self.nprocs:
                clock.charge_compute(stage, action["rank"], action["seconds"])
                if tracer is not None:
                    tracer.stall(stage, action["rank"], action["seconds"])
        return results

    def _check_not_in_rank_step(self, what: str) -> None:
        if self._in_rank_step:
            raise CommunicatorError(
                f"{what} is not allowed inside a map_ranks step; charge "
                f"through the RankContext (ctx.charge_compute / "
                f"ctx.observe_memory) and keep collectives between supersteps"
            )

    # -- compute charging ---------------------------------------------------
    def charge_compute_all(self, ops_per_rank: Sequence[float], kind: str = "default") -> None:
        """Charge per-rank op counts in one vectorized clock call."""
        self._check_not_in_rank_step("SimWorld.charge_compute_all")
        if len(ops_per_rank) != self.nprocs:
            raise CommunicatorError(
                f"expected {self.nprocs} op counts, got {len(ops_per_rank)}"
            )
        seconds = self.machine.op_time_all(ops_per_rank, kind=kind)
        if seconds.any():
            self.clock.charge_compute_all(self.stage, seconds)
            if self.tracer is not None:
                self.tracer.compute_all(seconds)

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
        n = total.shape[0]
        if block_sizes is None:
            bounds = [block_range(n, self.size, i)[0] for i in range(self.size)] + [n]
        elif int(sum(block_sizes)) == n:
            bounds = cumsum0(block_sizes).tolist()
        else:
            raise CommunicatorError(f"block sizes sum to {sum(block_sizes)}, expected {n}")
        nbytes = sum(int(np.asarray(a).nbytes) for a in per_rank_arrays)
        self._charge("reduce_scatter", nbytes, int(first.nbytes), self.size - 1)
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
