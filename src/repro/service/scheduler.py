"""Scheduling and execution: turning queued job records into pipeline runs.

A :class:`Worker` claims jobs in priority + FIFO order (the ordering lives
in :func:`~repro.service.store.runnable_order`) and executes each one via
the existing :class:`~repro.pipeline.Pipeline`, with the shared artifact
cache as the run's checkpoint store.  A :class:`JobObserver` rides along:
every stage event is appended to the job's durable event log (queryable
while the job runs), per-stage progress lands in the job record, the lease
is heartbeaten so a live worker is never mistaken for a dead one, and a
cancel request observed at a stage boundary aborts the run.

Fault injection: a worker built with a :class:`~repro.faults.FaultPlan`
owns a :class:`~repro.faults.FaultInjector` that persists across the
jobs it runs.  The injector rides each run as an observer (superstep and
checkpoint faults); ``worker_kill`` rules fire through
:class:`_WorkerKillObserver`, which records a durable
``fault_injected`` event and then either SIGKILLs the process or raises
:class:`~repro.faults.InjectedWorkerDeath` (a ``BaseException``, so the
normal failure handling cannot catch it -- the job stays leased and
pinned exactly as a real hard death leaves it).

Failed attempts are routed through the store's
:class:`~repro.faults.RetryPolicy`: retryable failure classes are
requeued with exponential backoff (``retry_scheduled`` event), permanent
ones land in terminal ``failed`` immediately.
"""

from __future__ import annotations

import os
import signal
import traceback
from typing import TYPE_CHECKING, Sequence

from ..faults import FaultInjector, FaultPlan, InjectedWorkerDeath
from ..pipeline import Pipeline, PipelineConfig, PipelineObserver
from .store import JobError, JobRecord, JobSpec, JobStore

if TYPE_CHECKING:  # pragma: no cover
    from ..pipeline.engine import PipelineResult, RunContext, StageTiming
    from .cache import SharedArtifactCache

__all__ = [
    "JobCancelled",
    "JobObserver",
    "Worker",
    "materialize_spec",
]


class JobCancelled(JobError):
    """Raised inside a run when the job's cancel flag is observed."""


# ---------------------------------------------------------------------------
# spec materialization
# ---------------------------------------------------------------------------


def materialize_spec(spec: JobSpec) -> tuple[list, PipelineConfig]:
    """Rebuild (reads, config) from a declarative job spec.

    Deterministic by construction: the same spec yields byte-identical
    reads in any process, which is what makes the fingerprint-keyed cache
    shareable across jobs, workers and restarts.
    """
    source = dict(spec.source)
    kind = source.pop("kind", None)
    defaults: dict = {}
    if kind == "simulate":
        from ..seq.simulate import GenomeSpec, make_genome, tile_reads

        genome = make_genome(
            GenomeSpec(
                length=int(source.get("length", 10_000)),
                gc=float(source.get("gc", 0.5)),
                seed=int(source.get("seed", 0)),
            )
        )
        readset = tile_reads(
            genome,
            int(source.get("read_length", 400)),
            int(source.get("stride", 150)),
            source.get("strand", "forward"),
        )
        reads = readset.reads
    elif kind == "preset":
        from ..bench.harness import build_bench_dataset

        ds = build_bench_dataset(source["name"], scale=source.get("scale"))
        reads = list(ds.readset.reads)
        defaults = dict(ds.config_kwargs, k=ds.k)
    elif kind == "fasta":
        from ..seq.fasta import read_fasta

        _, reads = read_fasta(source["path"])
        if not reads:
            raise JobError(f"no sequences found in {source['path']!r}")
    else:
        raise JobError(
            f"unknown read source kind {kind!r}; "
            "options: simulate, preset, fasta"
        )
    try:
        config = PipelineConfig(**{**defaults, **spec.config})
    except TypeError as exc:
        raise JobError(f"bad config override in job spec: {exc}") from exc
    config.validate()
    return reads, config


# ---------------------------------------------------------------------------
# the in-run observer
# ---------------------------------------------------------------------------


class JobObserver(PipelineObserver):
    """Streams a running job's stage events into its durable record."""

    def __init__(self, store: JobStore, record: JobRecord) -> None:
        self.store = store
        self.record = record

    def _sync(self) -> None:
        """Pick up external flags (cancel) and keep the lease fresh."""
        try:
            fresh = self.store.get(self.record.job_id)
        except JobError:
            return
        self.record.cancel_requested = fresh.cancel_requested
        if self.record.lease is not None:
            self.record.lease = dict(
                self.record.lease,
                expires=self.store.clock() + self.store.lease_ttl,
            )

    def on_stage_start(self, stage: str, ctx: "RunContext") -> None:
        self._sync()
        if self.record.cancel_requested:
            self.store.append_event(
                self.record.job_id, "cancelling", stage=stage
            )
            raise JobCancelled(
                f"job {self.record.job_id} cancelled before {stage}"
            )
        self.record.progress[stage] = "running"
        self.store.save(self.record)
        self.store.append_event(self.record.job_id, "stage_start", stage=stage)

    def on_stage_end(
        self, stage: str, ctx: "RunContext", timing: "StageTiming"
    ) -> None:
        self._sync()
        self.record.progress[stage] = "done"
        self.store.save(self.record)
        self.store.append_event(
            self.record.job_id,
            "stage_end",
            stage=stage,
            modeled_seconds=timing.modeled_seconds,
            wall_seconds=timing.wall_seconds,
        )

    def on_stage_skip(self, stage: str, ctx: "RunContext", reason: str) -> None:
        self._sync()
        self.record.progress[stage] = (
            "cached" if reason == "checkpoint" else f"skipped:{reason}"
        )
        self.store.save(self.record)
        self.store.append_event(
            self.record.job_id, "stage_skip", stage=stage, reason=reason
        )

    def on_stage_note(self, stage: str, ctx: "RunContext", note: str) -> None:
        self.store.append_event(
            self.record.job_id, "note", stage=stage, note=note
        )


class _WorkerKillObserver(PipelineObserver):
    """Fires ``worker_kill`` fault rules at stage boundaries.

    The injector decides and records the event *first* -- appended
    durably to the job's event log -- and only then does the kill land,
    so even a SIGKILL that beats every other observer leaves its trace.
    """

    def __init__(
        self, injector: FaultInjector, store: JobStore, record: JobRecord
    ) -> None:
        self.injector = injector
        self.store = store
        self.record = record

    def on_stage_start(self, stage, ctx) -> None:
        self._check(None)

    def on_stage_end(self, stage, ctx, timing) -> None:
        self._check(stage)

    def _check(self, after_stage: str | None) -> None:
        rule = self.injector.worker_kill_action(after_stage)
        if rule is None:
            return
        self.store.append_event(
            self.record.job_id,
            "fault_injected",
            fault="worker_kill",
            stage=after_stage,
            mode=rule.mode,
        )
        if rule.mode == "sigkill":  # pragma: no cover - kills the process
            os.kill(os.getpid(), signal.SIGKILL)
        where = f"after {after_stage}" if after_stage else "at a stage boundary"
        raise InjectedWorkerDeath(
            f"fault plan killed worker {where} "
            f"(simulated hard death; job stays leased and pinned)"
        )


# ---------------------------------------------------------------------------
# the worker
# ---------------------------------------------------------------------------


class Worker:
    """A claim-execute-finish loop over a job store + shared cache.

    One worker processes one job at a time; run several workers (same or
    different processes) against the same store root for concurrency.  A
    worker that dies mid-job leaves a leased ``running`` record whose
    lease expires; the next claim adopts it and the shared cache turns
    the re-run into loads of everything already checkpointed.
    """

    def __init__(
        self,
        store: JobStore,
        cache: "SharedArtifactCache",
        worker_id: str | None = None,
        observers: Sequence[PipelineObserver] = (),
        fault_plan: FaultPlan | None = None,
        fault_injector: FaultInjector | None = None,
        trace_jobs: bool = True,
    ) -> None:
        self.store = store
        self.cache = cache
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.extra_observers = list(observers)
        if fault_injector is None and fault_plan is not None:
            fault_injector = FaultInjector(fault_plan)
        # one injector per worker, shared across every job it runs; pass
        # a prebuilt injector to share fire-state across worker
        # generations (how chaos tests model a restarted worker fleet)
        self.fault_injector = fault_injector
        # persist a span trace per job (<job>.trace.jsonl in the store
        # root) plus a per-worker metrics snapshot after every job
        self.trace_jobs = trace_jobs

    def run_once(self) -> JobRecord | None:
        """Claim and fully process one job; None when the queue is idle."""
        record = self.store.claim_next(self.worker_id)
        if record is None:
            return None
        return self._execute(record)

    def drain(self, max_jobs: int | None = None) -> list[JobRecord]:
        """Process jobs until the queue is empty (or ``max_jobs`` done)."""
        done: list[JobRecord] = []
        while max_jobs is None or len(done) < max_jobs:
            record = self.run_once()
            if record is None:
                break
            done.append(record)
        return done

    # -- internals -------------------------------------------------------
    def _execute(self, record: JobRecord) -> JobRecord:
        try:
            reads, config = materialize_spec(record.spec)
        except Exception as exc:
            record = self.store.finish(
                record, "failed", error=f"spec error: {exc}"
            )
            self.cache.unpin(record.job_id)
            return record

        pipeline = Pipeline.default()
        for name in pipeline.stage_names:
            record.progress.setdefault(name, "queued")
        self.store.save(record)

        observers: list = [JobObserver(self.store, record)]
        tracer = None
        if self.trace_jobs:
            from ..telemetry import Tracer

            tracer = Tracer()
            observers.append(tracer)
        injector = self.fault_injector
        if injector is not None:
            observers += [
                injector, _WorkerKillObserver(injector, self.store, record)
            ]
        observers.extend(self.extra_observers)

        hits0, misses0 = self.cache.hits, self.cache.misses
        fault_events = injector.events if injector is not None else ()
        faults0 = len(fault_events)
        try:
            with self.cache.pin_scope(record.job_id):
                result = pipeline.run(
                    reads,
                    config,
                    until=record.spec.until,
                    checkpoint_store=self.cache,
                    observers=observers,
                )
        except JobCancelled:
            record = self.store.finish(record, "cancelled")
        except Exception as exc:
            record = self._fail_or_retry(record, exc)
        else:
            summary = result.summary()
            summary["stages_cached"] = sum(
                1 for _, why in result.stages_skipped if why == "checkpoint"
            )
            summary["cache_hits"] = self.cache.hits - hits0
            summary["cache_misses"] = self.cache.misses - misses0
            summary["faults_injected"] = len(fault_events) - faults0
            trace_file = self._write_trace(record.job_id, tracer)
            if trace_file is not None:
                summary["trace_file"] = trace_file
                summary["trace_digest"] = tracer.digest()
            record = self.store.finish(record, "done", summary=summary)
        finally:
            # release this job's pins only at a terminal state.  A
            # simulated hard death (InjectedWorkerDeath) or a
            # backoff-scheduled retry leaves the record non-terminal, and
            # its pins must survive for the adopting worker -- exactly as
            # a real SIGKILL would leave them
            if record.terminal:
                self.cache.unpin(record.job_id)
            self._publish_metrics()
        return record

    def _write_trace(self, job_id: str, tracer) -> str | None:
        """Persist the job's span trace next to its record; None on miss.

        A trace write failure never fails the job -- observability is
        strictly additive.
        """
        if tracer is None or tracer._root is None:
            return None
        from ..telemetry import write_jsonl

        path = self.store.trace_path(job_id)
        try:
            write_jsonl(tracer, path)
        except OSError:
            return None
        return path.name

    def _publish_metrics(self) -> None:
        """Atomically publish this worker's metrics snapshot.

        One JSON file per worker under ``store.root/metrics/``; the
        ``repro-jobs top`` view merges them across workers.  Best-effort:
        a publish failure never affects job state.
        """
        import json
        import tempfile

        from ..telemetry.metrics import get_registry

        snap = get_registry().snapshot()
        snap["worker"] = self.worker_id
        try:
            out_dir = self.store.metrics_dir
            out_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(snap, fh, sort_keys=True)
            os.replace(tmp, out_dir / f"{self.worker_id}.json")
        except OSError:
            pass

    def _fail_or_retry(self, record: JobRecord, exc: Exception) -> JobRecord:
        """Route one failed attempt: backoff requeue or terminal failure."""
        policy = self.store.retry
        tail = traceback.format_exc(limit=5)
        error = f"{type(exc).__name__}: {exc}\n{tail}"
        if policy.is_retryable(exc) and record.attempts < policy.max_attempts:
            delay = policy.delay_for(record.attempts)
            return self.store.schedule_retry(record, error, delay)
        return self.store.finish(record, "failed", error=error)
