"""Assembly-as-a-service: a persistent multi-tenant job engine.

The subsystem that turns the checkpointed :class:`~repro.pipeline.Pipeline`
into a long-lived service: submit many assemblies (:class:`JobService`),
survive process restarts (lease-based :class:`JobStore` records), and let
concurrent jobs sweeping downstream knobs over the same reads reuse each
other's upstream artifacts through one budgeted, evicting
:class:`SharedArtifactCache`.

    from repro.service import JobService

    svc = JobService("service-root", cache_budget_mb=64)
    a = svc.submit({"kind": "simulate", "length": 20_000, "seed": 1,
                    "read_length": 600, "stride": 220},
                   {"nprocs": 4, "k": 21})
    svc.run_worker()
    print(svc.result(a)["contigs"], "contigs")
"""

from ..faults import FaultInjector, FaultPlan, InjectedWorkerDeath, RetryPolicy
from .api import JobService
from .cache import CacheError, SharedArtifactCache
from .scheduler import (
    JobCancelled,
    JobObserver,
    Worker,
    materialize_spec,
)
from .store import (
    JOB_STATES,
    TERMINAL_STATES,
    JobError,
    JobRecord,
    JobSpec,
    JobStore,
    runnable_order,
)

__all__ = [
    "JobService",
    "JobStore",
    "JobSpec",
    "JobRecord",
    "JobError",
    "JobCancelled",
    "JobObserver",
    "Worker",
    "materialize_spec",
    "SharedArtifactCache",
    "CacheError",
    "JOB_STATES",
    "TERMINAL_STATES",
    "runnable_order",
    # re-exported fault/recovery surface (lives in repro.faults)
    "FaultPlan",
    "FaultInjector",
    "InjectedWorkerDeath",
    "RetryPolicy",
]
