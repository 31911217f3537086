"""The runtime half of fault injection: deciding when armed rules fire.

One :class:`FaultInjector` wraps one :class:`~repro.faults.plan.FaultPlan`.
To the pipeline engine it is an observer like any other
(``Pipeline.run(..., observers=[injector])``, duck-typed hooks): it arms
the run's world in ``on_run_start``, disarms it in ``on_run_end``, and
is consulted at three sites:

* **superstep boundaries** -- :class:`~repro.mpi.comm.SimWorld.map_ranks`
  asks :meth:`superstep_actions` before launching a superstep; matching
  ``rank_crash`` rules make that rank raise
  :class:`~repro.errors.RankFailure` in place of its step (so the
  transactional accounting charges nothing), matching ``stall`` rules
  charge modeled straggler seconds after the superstep succeeds;
* **checkpoint save/load** -- the engine's :meth:`on_checkpoint` hook
  corrupts a just-saved artifact or tears one out from under a load
  (``cache_evict_race``), exercising the ``CheckpointLoadError`` ->
  recompute degradation path;
* **worker kill sites** -- the service worker asks
  :meth:`worker_kill_action` at stage boundaries; a matching rule either
  SIGKILLs the process (``mode="sigkill"``) or tells the caller to raise
  :class:`InjectedWorkerDeath` (``mode="sim"``, for in-process tests).

Every fired rule is appended to :attr:`events` -- and, during a run,
raised as an ``on_stage_note`` for the run's other observers -- *before*
its effect lands, so even a fault that kills the worker an instant later
is already visible in the event log.  Superstep indices are counted per
stage for the injector's lifetime: an injector shared across worker
generations keeps its memory of what already fired, which is how a plan
"eventually stops injecting".
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Iterator

from ..errors import RankFailure
from .plan import FaultPlan, FaultRule

__all__ = ["FaultInjector", "InjectedWorkerDeath", "describe_event"]


class InjectedWorkerDeath(BaseException):
    """A simulated hard worker death (``worker_kill`` with ``mode="sim"``).

    Derives from :class:`BaseException` on purpose: the worker's normal
    ``except Exception`` failure handling must *not* catch it, exactly as
    no handler catches a real SIGKILL.  The job is left ``running`` with
    a live lease and pinned artifacts, to be adopted after lease expiry.
    """


def describe_event(event: dict) -> str:
    """One human-readable line for a fired-fault event."""
    detail = ", ".join(
        f"{k}={v}" for k, v in sorted(event.items())
        if k not in ("n", "site", "kind") and v is not None
    )
    return f"fault injected: {event['kind']}" + (f" ({detail})" if detail else "")


def _corrupt_file(path: str, mode: str) -> bool:
    """Truncate or bit-flip ``path`` in place; False if it isn't there."""
    try:
        size = os.path.getsize(path)
        if mode == "truncate":
            with open(path, "r+b") as fh:
                fh.truncate(min(16, size // 2))
        else:  # bitflip
            with open(path, "r+b") as fh:
                fh.seek(size // 2)
                byte = fh.read(1)
                if not byte:
                    return False
                fh.seek(size // 2)
                fh.write(bytes([byte[0] ^ 0xFF]))
    except OSError:
        return False
    return True


class FaultInjector:
    """Tracks which rules of one plan have fired, and fires the rest."""

    def __init__(self, plan: FaultPlan) -> None:
        plan.validate()
        self.plan = plan
        #: every fired fault, in firing order (dicts with site/kind/...)
        self.events: list[dict] = []
        #: the run this injector is armed on (a RunContext), if any, and
        #: the injector that run's world carried before
        self._ctx: Any = None
        self._prev_injector: Any = None
        self._fires = [0] * len(plan.rules)
        self._supersteps: dict[str, int] = {}
        self._kill_checks = 0

    @property
    def exhausted(self) -> bool:
        """True once every rule has fired ``max_fires`` times."""
        return all(
            n >= r.max_fires for n, r in zip(self._fires, self.plan.rules)
        )

    def _armed(self, kinds: tuple[str, ...]) -> Iterator[tuple[int, FaultRule]]:
        for i, rule in enumerate(self.plan.rules):
            if rule.kind in kinds and self._fires[i] < rule.max_fires:
                yield i, rule

    def _record(self, site: str, rule: FaultRule, **detail) -> dict:
        event = {"n": len(self.events), "site": site, "kind": rule.kind}
        event.update(detail)
        self.events.append(event)
        from ..telemetry.metrics import get_registry

        metrics = get_registry()
        metrics.counter("faults.injected").inc()
        metrics.counter(f"faults.{rule.kind}").inc()
        # the worker kill site records its own durable event: the process
        # may not live long enough for any observer to see a note
        if self._ctx is not None and site != "worker":
            self._ctx.note(event.get("stage") or "-", describe_event(event))
        return event

    # -- pipeline observer hooks (on_checkpoint: see the checkpoint site) --
    def on_run_start(self, ctx) -> None:
        self._ctx, self._prev_injector = ctx, ctx.world.fault_injector
        ctx.world.fault_injector = self

    def on_run_end(self, ctx, wall_seconds: float) -> None:
        ctx.world.fault_injector = self._prev_injector
        self._ctx = self._prev_injector = None

    # -- superstep site ----------------------------------------------------
    def superstep_actions(self, stage_stack: Iterable[str]) -> list[dict]:
        """Fired crash/stall events for the superstep about to run.

        ``stage_stack`` is the world's stage stack, outermost first; entry 1
        (when present) is the pipeline stage the engine pushed, which is
        the name fault rules match against.  Each call consumes one
        superstep index for that stage.
        """
        stack = list(stage_stack)
        stage = stack[1] if len(stack) > 1 else stack[-1]
        idx = self._supersteps.get(stage, 0)
        self._supersteps[stage] = idx + 1
        fired: list[dict] = []
        for i, rule in self._armed(("rank_crash", "stall")):
            if rule.stage is not None and rule.stage != stage:
                continue
            if rule.superstep is not None and rule.superstep != idx:
                continue
            self._fires[i] += 1
            detail = {"stage": stage, "superstep": idx, "rank": rule.rank}
            if rule.kind == "stall":
                detail["seconds"] = rule.seconds
            fired.append(self._record("superstep", rule, **detail))
        return fired

    # -- checkpoint site ---------------------------------------------------
    def on_checkpoint(self, stage: str, ctx, path, when: str) -> None:
        """Observer hook: apply corrupt/evict rules to one checkpoint file.

        ``when`` is ``"save"`` (the engine just wrote ``path``) or
        ``"load"`` (the engine saw ``has() == True`` and is about to
        load).  ``cache_evict_race`` only makes sense at the load site.
        """
        path = str(path)
        for i, rule in self._armed(("checkpoint_corrupt", "cache_evict_race")):
            if rule.stage is not None and rule.stage != stage:
                continue
            if rule.kind == "cache_evict_race":
                if when != "load":
                    continue
                try:
                    os.unlink(path)
                except OSError:
                    continue
                action = "evicted"
            else:
                if rule.when != when:
                    continue
                if not _corrupt_file(path, rule.mode):
                    continue
                action = f"corrupted:{rule.mode}"
            self._fires[i] += 1
            self._record(
                "checkpoint", rule, stage=stage, when=when, action=action
            )

    # -- worker kill site --------------------------------------------------
    def worker_kill_action(self, after_stage: str | None = None) -> FaultRule | None:
        """The worker-kill rule firing at this check, if any.

        Called by the service worker at stage boundaries;
        ``after_stage`` names the stage that just completed (``None`` for
        checks that are not end-of-stage).  The caller performs the kill
        -- this method only decides, counts, and records it, so the event
        is durable before the process dies.
        """
        self._kill_checks += 1
        for i, rule in self._armed(("worker_kill",)):
            hit = (
                rule.after_stage is not None
                and after_stage is not None
                and rule.after_stage == after_stage
            ) or (
                rule.after_n_events is not None
                and self._kill_checks >= rule.after_n_events
            )
            if hit:
                self._fires[i] += 1
                self._record(
                    "worker", rule, stage=after_stage, mode=rule.mode,
                    check=self._kill_checks,
                )
                return rule
        return None

    # -- helpers for the superstep caller ---------------------------------
    @staticmethod
    def crash_failure(action: dict) -> RankFailure:
        """Build the :class:`RankFailure` for one fired crash event."""
        return RankFailure(
            f"injected rank failure: rank {action['rank']} died in stage "
            f"{action['stage']!r} superstep {action['superstep']}",
            rank=action["rank"],
            stage=action["stage"],
            superstep=action["superstep"],
        )
