"""Process-pool executor: real multi-core parallelism for rank steps.

Rank steps run in worker *processes* -- the paper's execution model --
so the whole step parallelizes, pure-Python sections included.  The
contract is the serial backend's -- results in rank order, lowest-ranked
failure wins, accounting merged at the superstep barrier -- which
out-of-process execution realizes in four moves:

1. the step callable is cloudpickled once per superstep and each rank's
   ``(detached RankContext, args)`` task once per rank, with every large
   read-only array diverted through the superstep's
   :class:`~repro.mpi.shm.SharedBufferRegistry` (zero-copy attach in the
   workers instead of a per-rank pickle of the same gigabytes);
2. tasks are dispatched in contiguous chunks (one per worker) so a
   64-rank superstep costs ~``n_workers`` IPC round-trips, not 64; a
   segment step runs once per chunk, over the chunk's ranks;
3. workers run their chunk and return one buffered
   :class:`~repro.mpi.executor.RankOutcome` per rank -- never touching
   shared state, so a mid-superstep failure charges nothing;
4. the parent splices outcomes into the parent-side contexts
   (:func:`~repro.mpi.executor.apply_remote_outcomes`) and the ordinary
   rank-ordered merge runs, bit-identical to the serial backend.

Unpicklable steps or arguments surface as :class:`CommunicatorError`
naming the offender, not a raw ``PicklingError`` from pool internals.
The spawn start method keeps workers fork-safe (no inherited locks); the
pool persists across supersteps and rebuilds lazily after ``shutdown``.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import Any, Sequence

from ..errors import CommunicatorError
from .executor import (
    Executor,
    RankContext,
    RankOutcome,
    apply_remote_outcomes,
    run_inline,
    run_segment,
)
from .shm import (
    SHM_THRESHOLD_DEFAULT,
    SharedBufferRegistry,
    dumps_step,
    dumps_task,
    shm_loads,
)

__all__ = ["ProcessExecutor", "PROCESS_WORKERS_ENV", "run_serialized_chunk"]

#: overrides worker count for the shared default instance (CI knob)
PROCESS_WORKERS_ENV = "REPRO_PROCESS_WORKERS"


def _watch_parent(parent_pid: int) -> None:
    """Pool-worker initializer: self-terminate if the parent dies.

    A SIGKILLed driver (real crash, or the chaos suite's worker_kill
    injection) cannot shut its pool down; orphaned workers would then
    block forever on the call queue while holding the parent's inherited
    stdout/stderr pipes open -- wedging anything reading those pipes.
    Each worker instead polls for reparenting and exits hard.  The poll
    is deliberately tight: whoever reads the dead driver's pipes (or
    waits on its job lease) stalls until the orphans let go.
    """
    import threading
    import time

    def watch() -> None:  # pragma: no cover - runs in pool workers
        while True:
            if os.getppid() != parent_pid:
                os._exit(0)
            time.sleep(0.1)

    threading.Thread(target=watch, daemon=True, name="parent-watch").start()


def _safe_outcome_dumps(outcomes: list[RankOutcome]) -> bytes:
    """cloudpickle outcomes, degrading unpicklable entries to clear errors.

    A step may raise (or return) something that cannot cross back to the
    parent; losing the whole chunk to a ``PicklingError`` would break the
    lowest-ranked-failure contract, so each offending entry is replaced
    by a picklable :class:`CommunicatorError` describing it.
    """
    import cloudpickle

    try:
        return cloudpickle.dumps(outcomes)
    except Exception:
        safe: list[RankOutcome] = []
        for outcome in outcomes:
            try:
                cloudpickle.dumps(outcome)
            except Exception as exc:
                if outcome.error is not None:
                    kind, detail = "raised", outcome.error
                else:
                    kind, detail = "returned", outcome.result
                safe.append(
                    RankOutcome(
                        error=CommunicatorError(
                            f"rank step {kind} an unpicklable value that "
                            f"cannot cross back from the worker process "
                            f"({type(exc).__name__}: {exc}): {detail!r:.200}"
                        )
                    )
                )
            else:
                safe.append(outcome)
        return cloudpickle.dumps(safe)


def run_serialized_chunk(
    fn_blob: bytes, task_blobs: list[bytes], segmented: bool = False
) -> bytes:
    """Worker entry point: run a contiguous chunk of rank tasks.

    Runs in the pool worker process.  Deserializes the step once, each
    task's ``(ctx, args)`` (attaching shared segments zero-copy), and
    executes ranks in order -- matching serial semantics within the
    chunk.  Every task runs even if an earlier one failed (the drain
    guarantee), and outcomes come back buffered, never applied.  A
    ``segmented`` chunk is one call of the segment step; if it raises,
    the chunk's first rank carries the error.
    """
    fn = shm_loads(fn_blob)
    tasks = [shm_loads(blob) for blob in task_blobs]
    if segmented:
        try:
            results = run_segment(fn, tasks)
        except Exception as exc:
            outcomes = [RankOutcome(error=exc)] + [RankOutcome() for _ in tasks[1:]]
        else:
            outcomes = [
                RankOutcome(result, ctx._compute, ctx._memory, ctx._spans)
                for (ctx, _args), result in zip(tasks, results)
            ]
        return _safe_outcome_dumps(outcomes)
    outcomes = []
    for ctx, args in tasks:
        try:
            result = fn(ctx, *args)
        except Exception as exc:
            outcomes.append(RankOutcome(error=exc))
        else:
            outcomes.append(
                RankOutcome(result, ctx._compute, ctx._memory, ctx._spans)
            )
    return _safe_outcome_dumps(outcomes)


class ProcessExecutor(Executor):
    """Persistent spawn-based process pool over shared read-only buffers."""

    name = "process"
    in_process = False

    def __init__(
        self,
        max_workers: int | None = None,
        shm_threshold: int = SHM_THRESHOLD_DEFAULT,
        keep_sweeps: int = 4,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise CommunicatorError(
                f"process executor needs >= 1 workers, got {max_workers}"
            )
        self.max_workers = max_workers
        self.shm_threshold = shm_threshold
        self.registry = SharedBufferRegistry(keep_sweeps=keep_sweeps)
        self._pool: ProcessPoolExecutor | None = None
        self._pool_workers = 0
        self._atexit_registered = False

    # -- pool ------------------------------------------------------------
    def _worker_count(self) -> int:
        if self.max_workers is not None:
            return self.max_workers
        env = os.environ.get(PROCESS_WORKERS_ENV)
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise CommunicatorError(
                    f"bad {PROCESS_WORKERS_ENV}={env!r}: expected an int"
                ) from None
            if workers < 1:
                raise CommunicatorError(
                    f"bad {PROCESS_WORKERS_ENV}={env!r}: must be >= 1"
                )
            return workers
        return os.cpu_count() or 1

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool_workers = self._worker_count()
            # spawn, not fork: workers never inherit the parent's locks,
            # open pools or numpy thread state mid-flight
            self._pool = ProcessPoolExecutor(
                max_workers=self._pool_workers,
                mp_context=get_context("spawn"),
                initializer=_watch_parent,
                initargs=(os.getpid(),),
            )
            if not self._atexit_registered:
                # shut the pool down before interpreter teardown starts
                # (a pool merely garbage-collected at exit races module
                # finalization and spews spurious tracebacks)
                atexit.register(self.shutdown)
                self._atexit_registered = True
        return self._pool

    def _reset_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # -- superstep -------------------------------------------------------
    def run(
        self,
        fn: Any,
        tasks: Sequence[tuple[RankContext, tuple]],
        segmented: bool = False,
    ) -> list[Any]:
        if len(tasks) <= 1:
            # a single rank gains nothing from IPC; run inline (still
            # bit-identical: same step, same context, same merge)
            return run_inline(fn, tasks, segmented)

        registry = self.registry
        fn_blob = dumps_step(fn, registry, self.shm_threshold)
        task_blobs = [
            dumps_task(int(ctx), (ctx, args), registry, self.shm_threshold)
            for ctx, args in tasks
        ]

        pool = self._ensure_pool()
        nchunks = min(self._pool_workers, len(tasks))
        bounds = _chunk_bounds(len(tasks), nchunks)
        try:
            futures: list[Future] = [
                pool.submit(
                    run_serialized_chunk, fn_blob, task_blobs[lo:hi], segmented
                )
                for lo, hi in bounds
            ]
            wait(futures)
            chunk_blobs: list[bytes] = []
            for future in futures:
                exc = future.exception()
                if exc is not None:
                    raise exc
                chunk_blobs.append(future.result())
        except BrokenProcessPool as exc:
            # a worker died hard (OOM kill, segfault); the pool is
            # permanently broken -- drop it so the next superstep gets a
            # fresh one, and surface a typed error the retry layer knows
            self._reset_pool()
            raise CommunicatorError(
                "a process-pool worker died mid-superstep; the pool was "
                "reset (next superstep spawns fresh workers)"
            ) from exc
        finally:
            # segments for this superstep stay mapped in the workers'
            # attach caches; the sweep only reclaims segments idle for
            # several supersteps, which no in-flight task can reference
            registry.sweep()

        outcomes = [o for blob in chunk_blobs for o in shm_loads(blob)]
        return apply_remote_outcomes(tasks, outcomes)

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self.registry.close()


def _chunk_bounds(n: int, chunks: int) -> list[tuple[int, int]]:
    """Contiguous near-even [lo, hi) chunks preserving rank order."""
    base, extra = divmod(n, chunks)
    bounds = []
    lo = 0
    for c in range(chunks):
        hi = lo + base + (1 if c < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds
