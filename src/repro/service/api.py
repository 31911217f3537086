"""The synchronous facade over the job engine.

:class:`JobService` owns one service root::

    root/
      jobs/    <job>.json + <job>.events.jsonl   (JobStore)
      cache/   <stage>-<fingerprint>.ckpt + LRU index + pins
               (SharedArtifactCache, shared by every job)

Everything the CLI exposes (``repro-jobs submit|list|status|watch|
cancel|gc``) is a thin wrapper over this class, and tests drive it
directly.  The service object is cheap and stateless beyond its two
stores -- any number of processes may open the same root concurrently.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable

from ..faults import FaultPlan, RetryPolicy
from .cache import SharedArtifactCache
from .scheduler import Worker
from .store import JobError, JobRecord, JobSpec, JobStore

__all__ = ["JobService"]


class JobService:
    """Submit, observe, cancel, resume and garbage-collect assembly jobs."""

    def __init__(
        self,
        root: str | Path,
        cache_budget_mb: float | None = None,
        lease_ttl: float = 60.0,
        clock: Callable[[], float] = time.time,
        retry: "RetryPolicy | None" = None,
    ) -> None:
        self.root = Path(root)
        self.store = JobStore(
            self.root / "jobs", lease_ttl=lease_ttl, clock=clock, retry=retry
        )
        self.cache = SharedArtifactCache(
            self.root / "cache", budget_mb=cache_budget_mb
        )

    # -- submission ------------------------------------------------------
    def submit(
        self,
        source: dict | None = None,
        config: dict | None = None,
        *,
        spec: JobSpec | None = None,
        owner: str = "anon",
        priority: int = 0,
        until: str | None = None,
        name: str = "",
    ) -> str:
        """Queue one job; returns its id.

        Pass either a prebuilt ``spec`` or the ``source``/``config``/
        ``until``/``name`` pieces of one.
        """
        if spec is None:
            if source is None:
                raise JobError("submit needs a spec or a source")
            spec = JobSpec(
                source=dict(source),
                config=dict(config or {}),
                until=until,
                name=name,
            )
        return self.store.submit(spec, owner=owner, priority=priority).job_id

    # -- inspection ------------------------------------------------------
    def status(self, job_id: str) -> JobRecord:
        return self.store.get(job_id)

    def list_jobs(
        self, state: str | None = None, owner: str | None = None
    ) -> list[JobRecord]:
        return self.store.list_jobs(state=state, owner=owner)

    def events(self, job_id: str, since: int = 0) -> list[dict]:
        """The job's event log so far (live while the job runs)."""
        self.store.get(job_id)  # raise JobError for unknown ids
        return self.store.events(job_id, since=since)

    def result(self, job_id: str) -> dict:
        """The finished job's summary; raises unless state is ``done``."""
        record = self.store.get(job_id)
        if record.state != "done" or record.summary is None:
            raise JobError(
                f"job {job_id} has no result (state: {record.state})"
            )
        return record.summary

    # -- control ---------------------------------------------------------
    def cancel(self, job_id: str) -> JobRecord:
        return self.store.request_cancel(job_id)

    def resume(self) -> list[str]:
        """Re-queue orphaned running jobs whose worker lease expired."""
        return [r.job_id for r in self.store.requeue_orphans()]

    def gc(self, budget_mb: float | None = None) -> dict:
        """Evict unpinned cache entries down to the (given) budget."""
        return self.cache.gc(budget_mb)

    # -- execution -------------------------------------------------------
    def worker(
        self,
        worker_id: str | None = None,
        observers=(),
        fault_plan: FaultPlan | None = None,
        fault_injector=None,
    ) -> Worker:
        return Worker(
            self.store,
            self.cache,
            worker_id=worker_id,
            observers=observers,
            fault_plan=fault_plan,
            fault_injector=fault_injector,
        )

    def run_worker(
        self,
        max_jobs: int | None = None,
        worker_id: str | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> list[JobRecord]:
        """Drain the queue synchronously in this process."""
        return self.worker(
            worker_id, fault_plan=fault_plan
        ).drain(max_jobs=max_jobs)
