"""The stage engine that runs Algorithm 1.

The ELBA pipeline (Algorithm 1) is its five stages, in ``MAIN_STAGES``
order, each a :class:`Stage` wired to the others through named
*artifacts* -- the distributed data structures each phase produces
("kmer_table", "C", "R", "S", "contigs", ...).  A :class:`Pipeline` holds
one instance of each stage class of :mod:`repro.pipeline.stages` and
executes them over a :class:`RunContext` that carries the simulated
world, the configuration, and the artifact store.

The engine supports three execution modes beyond the classic end-to-end
run:

* **partial runs** -- ``pipeline.run(reads, cfg, until="TrReduction")``
  stops after the named stage and exposes its artifacts on the result;
* **artifact injection** -- ``pipeline.run(reads, cfg,
  from_artifacts={"C": C})`` skips every stage whose needed products
  are already present, re-homing injected distributed objects onto the
  run's own process grid;
* **checkpoint/resume** -- with a ``checkpoint_dir``, each executed
  stage serializes its artifacts keyed by a fingerprint of the stage's
  configuration chain; a later run reloads every stage whose fingerprint
  still matches and recomputes only what changed (an ablation sweep over
  contig-stage knobs never re-runs CountKmer/DetectOverlap/Alignment).

Observers (``observers=[...]``, hooks on :class:`PipelineObserver`) are
the only way anything attaches to a run: the CLI's progress lines, the
job engine's progress records, span tracing (``repro.telemetry.Tracer``)
and fault injection (``repro.faults.FaultInjector``) all watch -- or
disturb -- a run without the loop below knowing any of them.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Sequence, TextIO

import numpy as np

from ..core.contig import STAGE_PREFIX, ContigSet
from ..errors import PipelineError, RankFailure
from ..mpi.comm import SimWorld
from ..mpi.costmodel import MachineModel
from ..mpi.grid import ProcGrid
from ..mpi.stats import TimingReport
from ..overlap.filter import AlignmentStats
from ..seq.readstore import DistReadStore
from ..seq.simulate import ReadSet
from .checkpoint import (
    CheckpointLoadError,
    CheckpointStore,
    adopt_artifact,
    base_fingerprint,
)
from .config import PipelineConfig

__all__ = [
    "MAIN_STAGES",
    "Stage",
    "RunContext",
    "StageTiming",
    "PipelineObserver",
    "TraceObserver",
    "CollectingObserver",
    "Pipeline",
    "PipelineResult",
]

#: Stage names in pipeline order, matching the paper's Fig. 5 legend.
MAIN_STAGES = [
    "CountKmer",
    "DetectOverlap",
    "Alignment",
    "TrReduction",
    "ExtractContig",
]


def in_stage(name: str, stage: str) -> bool:
    """Whether clock stage ``name`` is ``stage`` or one of its
    ``"<stage>/..."`` substages -- never an unrelated stage that merely
    shares the name as a string prefix (``AlignmentExtra``)."""
    return name == stage or name.startswith(stage + "/")


# ---------------------------------------------------------------------------
# stage protocol
# ---------------------------------------------------------------------------


class Stage:
    """One pipeline phase: consumes and produces named artifacts.

    Subclasses set the class attributes and implement :meth:`run`, which
    reads its inputs from ``ctx.artifacts`` (via :meth:`RunContext.require`)
    and publishes its outputs (via :meth:`RunContext.publish`).  The engine
    wraps every ``run`` in ``world.stage_scope(self.name)`` so modeled time
    is attributed exactly as the monolithic driver attributed it.

    ``produces`` is exactly what the stage publishes, and its checkpoint
    holds exactly those artifacts; intermediates stay locals of ``run``.
    ``config_fields`` lists the :class:`PipelineConfig` attributes the
    stage's *output data* depends on; they feed the checkpoint fingerprint,
    so changing a field invalidates this stage's checkpoints (and every
    downstream stage's) while leaving upstream checkpoints reusable.
    """

    name: str = ""
    requires: tuple[str, ...] = ()
    produces: tuple[str, ...] = ()
    config_fields: tuple[str, ...] = ()

    def run(self, ctx: "RunContext") -> None:
        raise NotImplementedError

    def config_signature(self, config: PipelineConfig) -> dict:
        """The config subset this stage's artifacts depend on."""
        return {f: getattr(config, f) for f in self.config_fields}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Stage {self.name}>"


# ---------------------------------------------------------------------------
# run context
# ---------------------------------------------------------------------------


def _call(observer: Any, hook: str, *args) -> None:
    method = getattr(observer, hook, None)  # hooks are optional
    if method is not None:
        method(*args)


@dataclass
class RunContext:
    """Everything a stage can see: world, config, artifacts, counters."""

    config: PipelineConfig
    machine: MachineModel
    world: SimWorld
    grid: ProcGrid
    store: DistReadStore | None
    artifacts: dict[str, Any] = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    #: the observers whose ``on_run_start`` returned, in notification order
    observers: list = field(default_factory=list)

    def notify(self, hook: str, *args) -> None:
        """Call ``hook(*args)`` on every observer that defines it."""
        for obs in self.observers:
            _call(obs, hook, *args)

    def note(self, stage: str, text: str) -> None:
        """Raise an ``on_stage_note`` -- open to observers too, so one can
        tell its peers what it just did (an injected fault, say)."""
        self.notify("on_stage_note", stage, self, text)

    def require(self, key: str) -> Any:
        try:
            return self.artifacts[key]
        except KeyError:
            raise PipelineError(
                f"missing artifact {key!r}; available: {sorted(self.artifacts)}"
            ) from None

    def publish(self, key: str, value: Any) -> None:
        self.artifacts[key] = value


# ---------------------------------------------------------------------------
# observers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageTiming:
    """Per-stage timing handed to ``on_stage_end``."""

    stage: str
    modeled_seconds: float
    wall_seconds: float


class PipelineObserver:
    """The eight hooks of a run.

    Subclass and override any subset -- or subclass nothing: the fan-out
    (:meth:`RunContext.notify`) skips hooks an object does not define.
    """

    def on_run_start(self, ctx: RunContext) -> None:
        """``ctx.world`` exists, no stage has run: attach to it here."""

    def on_run_end(self, ctx: RunContext, wall_seconds: float) -> None:
        """The run is over, normally or by an exception: delivered in reverse
        order to exactly the observers whose ``on_run_start`` returned."""

    def on_stage_start(self, stage: str, ctx: RunContext) -> None:
        """Before every execution attempt of ``stage``."""

    def on_stage_end(self, stage: str, ctx: RunContext, timing: StageTiming) -> None:
        pass

    def on_stage_skip(self, stage: str, ctx: RunContext, reason: str) -> None:
        pass

    def on_stage_note(self, stage: str, ctx: RunContext, note: str) -> None:
        """An advisory event that is neither a skip nor an execution --
        e.g. a checkpoint that vanished between ``has`` and ``load``."""

    def on_stage_fail(
        self, stage: str, ctx: RunContext, exc: Exception, attempt: int
    ) -> None:
        """Attempt ``attempt`` died of a rank failure and was rolled back;
        the engine retries or re-raises next."""

    def on_checkpoint(self, stage: str, ctx: RunContext, path, when: str) -> None:
        """The stage's checkpoint at ``path`` was just written (``when``
        is ``"save"``) or is about to be read (``"load"``)."""


class TraceObserver(PipelineObserver):
    """Prints a progress line per stage (the CLI's ``--trace`` output)."""

    def __init__(self, out: TextIO | None = None) -> None:
        import sys

        self.out = out if out is not None else sys.stderr

    def on_stage_start(self, stage: str, ctx: RunContext) -> None:
        print(f"[pipeline] {stage} ...", file=self.out, flush=True)

    def on_stage_end(self, stage: str, ctx: RunContext, timing: StageTiming) -> None:
        print(
            f"[pipeline] {stage} done  "
            f"modeled {timing.modeled_seconds:.4f}s  "
            f"wall {timing.wall_seconds:.3f}s",
            file=self.out,
            flush=True,
        )

    def on_stage_skip(self, stage: str, ctx: RunContext, reason: str) -> None:
        print(f"[pipeline] {stage} skipped ({reason})", file=self.out, flush=True)

    def on_stage_note(self, stage: str, ctx: RunContext, note: str) -> None:
        print(f"[pipeline] {stage}: {note}", file=self.out, flush=True)


class CollectingObserver(PipelineObserver):
    """Records every hook call -- used by the bench harness and tests."""

    def __init__(self) -> None:
        self.events: list[tuple[str, str]] = []  # (kind, stage)
        self.timings: dict[str, StageTiming] = {}
        self.skips: dict[str, str] = {}
        self.notes: list[tuple[str, str]] = []  # (stage, note)

    def on_stage_start(self, stage: str, ctx: RunContext) -> None:
        self.events.append(("start", stage))

    def on_stage_end(self, stage: str, ctx: RunContext, timing: StageTiming) -> None:
        self.events.append(("end", stage))
        self.timings[stage] = timing

    def on_stage_skip(self, stage: str, ctx: RunContext, reason: str) -> None:
        self.events.append(("skip", stage))
        self.skips[stage] = reason

    def on_stage_note(self, stage: str, ctx: RunContext, note: str) -> None:
        self.events.append(("note", stage))
        self.notes.append((stage, note))


# ---------------------------------------------------------------------------
# result
# ---------------------------------------------------------------------------


@dataclass
class PipelineResult:
    """Everything a run produces.

    ``contigs`` is ``None`` for partial runs that stop before
    ``ExtractContig``; the stage outputs of such runs live in
    ``artifacts``, which injected and ``config.keep_graphs`` runs fill too
    (``"R"``, ``"S"``, ``"reads"``, ...).  ``stages_run`` / ``stages_skipped``
    record what the engine actually executed (skip reasons: ``"artifact"``
    for injected or unneeded products, ``"checkpoint"`` for resumed
    stages).
    """

    contigs: ContigSet | None = None
    config: PipelineConfig | None = None
    world: SimWorld | None = None
    report: TimingReport | None = None
    align_stats: AlignmentStats | None = None
    counts: dict = field(default_factory=dict)
    artifacts: dict[str, Any] = field(default_factory=dict)
    stages_run: list[str] = field(default_factory=list)
    stages_skipped: list[tuple[str, str]] = field(default_factory=list)
    #: stage recoveries performed this run: each entry records the stage,
    #: the failing rank/superstep, and which attempt the re-execution was
    recoveries: list[dict] = field(default_factory=list)
    #: this run's MemoryBudget, snapshotted at run end (budgets are
    #: per-run objects, so a later run on the same world cannot rewrite
    #: an earlier result's audit)
    memory_budget: Any = None

    def stage_seconds(self, stage: str) -> float:
        """Modeled seconds of a main stage (substages aggregated).

        Matches the exact stage name plus ``"<stage>/..."`` substages only;
        an unrelated stage that merely shares the name as a string prefix
        (e.g. ``AlignmentExtra`` vs ``Alignment``) is never absorbed.
        """
        total = 0.0
        for name, sec in self.report.stage_seconds.items():
            if in_stage(name, stage):
                total += sec
        return total

    def main_stage_breakdown(self) -> dict[str, float]:
        return {s: self.stage_seconds(s) for s in MAIN_STAGES}

    def contig_substage_breakdown(self) -> dict[str, float]:
        """Modeled seconds of each ExtractContig substage."""
        out = {}
        for name, sec in self.report.stage_seconds.items():
            if name != STAGE_PREFIX and in_stage(name, STAGE_PREFIX):
                out[name.split("/", 1)[1]] = sec
        return out

    @property
    def peak_memory_bytes(self) -> float:
        """Modeled per-rank peak working set of the run's SpGEMM kernels."""
        return float(self.counts.get("peak_memory_bytes", 0.0))

    @property
    def budget_violations(self) -> list:
        """Working-set samples that exceeded the configured budget."""
        budget = self.memory_budget
        return list(budget.violations) if budget is not None else []

    @property
    def modeled_total(self) -> float:
        return sum(self.main_stage_breakdown().values())

    def contig_digest(self) -> str | None:
        """Order-independent SHA-256 of the contig sequences.

        Two runs produced bit-identical assemblies iff their digests match
        -- the equality the job engine records so a resumed job can prove
        it converged to the same answer as an uninterrupted one.
        """
        if self.contigs is None:
            return None
        h = hashlib.sha256()
        for blob in sorted(
            np.asarray(c.codes, dtype=np.uint8).tobytes()
            for c in self.contigs.contigs
        ):
            h.update(blob)
            h.update(b"\x00")
        return h.hexdigest()

    def summary(self) -> dict:
        """A JSON-able digest of the run, suitable for a job record.

        Only scalar counters survive (numpy scalars are converted,
        non-scalar counts dropped); artifacts and matrices never leak in.
        """
        def scalar(v):
            if isinstance(v, bool) or v is None or isinstance(v, str):
                return v
            if isinstance(v, (int, np.integer)):
                return int(v)
            if isinstance(v, (float, np.floating)):
                return float(v)
            return None

        counts = {
            k: scalar(v) for k, v in self.counts.items()
            if scalar(v) is not None
        }
        return {
            "contigs": None if self.contigs is None else self.contigs.count,
            "total_bases": (
                None if self.contigs is None else self.contigs.total_bases()
            ),
            "longest": None if self.contigs is None else self.contigs.longest(),
            "contig_digest": self.contig_digest(),
            "modeled_seconds": self.modeled_total,
            "stage_seconds": self.main_stage_breakdown(),
            "wall_seconds": (
                self.report.wall_seconds if self.report is not None else None
            ),
            "peak_memory_bytes": self.peak_memory_bytes,
            "budget_violations": len(self.budget_violations),
            "stages_run": list(self.stages_run),
            "stages_skipped": [list(t) for t in self.stages_skipped],
            "recoveries": [dict(r) for r in self.recoveries],
            "counts": counts,
        }


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def _modeled_seconds(world: SimWorld, stage: str) -> float:
    """Current modeled makespan charged to ``stage`` (substages included)."""
    return sum(
        world.clock.stage_seconds(s)
        for s in world.clock.stages()
        if in_stage(s, stage)
    )


class Pipeline:
    """The five paper stages plus the machinery to run (parts of) them."""

    def __init__(self, *, observers: Sequence[Any] = ()) -> None:
        from .stages import PAPER_STAGES  # stages.py imports this module

        self.stages: list[Stage] = [cls() for cls in PAPER_STAGES]
        self.observers: list = list(observers)

    @classmethod
    def default(cls, observers: Sequence[Any] = ()) -> "Pipeline":
        """The five paper stages, in Fig. 1 order."""
        return cls(observers=observers)

    @property
    def stage_names(self) -> list[str]:
        return [s.name for s in self.stages]

    # -- planning --------------------------------------------------------
    def _slice(self, until: str | None) -> list[Stage]:
        if until is None:
            return list(self.stages)
        names = self.stage_names
        if until not in names:
            raise PipelineError(
                f"unknown stage {until!r} for until=; stages: {names}"
            )
        return self.stages[: names.index(until) + 1]

    @staticmethod
    def _plan(stages: list[Stage], artifacts: dict[str, Any]) -> set[str]:
        """Names of the stages to execute, walking the chain backwards from
        its last stage's products: a stage runs when a product it makes is
        needed and absent, and then needs what it requires."""
        needed = set(stages[-1].produces)
        selected = set()
        for st in reversed(stages):
            if any(k in needed and k not in artifacts for k in st.produces):
                selected.add(st.name)
                needed |= set(st.requires)
        return selected

    # -- context construction -------------------------------------------
    @staticmethod
    def _build_context(
        reads, config: PipelineConfig, machine: MachineModel
    ) -> RunContext:
        if isinstance(reads, DistReadStore):
            store = reads
            world = store.grid.world
            grid = store.grid
            if world.nprocs != config.nprocs:
                raise PipelineError(
                    f"the read store lives on a {world.nprocs}-rank world "
                    f"but config.nprocs is {config.nprocs}"
                )
        else:
            world = SimWorld(config.nprocs, machine)
            grid = ProcGrid(world)
            store = None
            if reads is not None:
                read_list = reads.reads if isinstance(reads, ReadSet) else reads
                store = DistReadStore.from_global(grid, read_list)
        # one budget per run, attached to the meter so every working-set
        # observation is audited and the SpGEMM planners can size phases
        world.memory.set_budget(config.memory_budget())
        ctx = RunContext(
            config=config, machine=machine, world=world, grid=grid, store=store
        )
        if store is not None:
            ctx.artifacts["reads"] = store
            ctx.counts["reads"] = store.nreads
            ctx.counts["bases"] = store.total_bases()
        return ctx

    # -- execution -------------------------------------------------------
    def run(
        self,
        reads=None,
        config: PipelineConfig | None = None,
        *,
        until: str | None = None,
        from_artifacts: dict[str, Any] | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_store: Any = None,
        observers: Sequence[Any] = (),
    ) -> PipelineResult:
        """Execute the chain of stages up to ``until``, or the part of it
        that is needed: a stage runs only when something it produces is
        needed and absent (:meth:`_plan`), so injected artifacts cut the
        chain off above them.

        Parameters
        ----------
        reads:
            A :class:`ReadSet`, list of code arrays, or prebuilt
            :class:`DistReadStore`.  May be omitted when ``from_artifacts``
            supplies everything the selected stages require.
        until:
            Stop after this stage (inclusive); later stages are reported
            to observers as skipped.
        from_artifacts:
            Precomputed artifacts to inject (e.g. an overlap matrix from a
            previous partial or ``keep_graphs`` run).  Distributed objects
            are re-homed onto this run's grid so modeled time is charged to
            this run's clocks.  Checkpointing is disabled for such runs --
            injected data has no config-derived provenance to fingerprint.
        checkpoint_dir:
            Directory for stage checkpoints (created on demand).
        checkpoint_store:
            A prebuilt :class:`~repro.pipeline.checkpoint.CheckpointStore`
            (or compatible wrapper, e.g. the job engine's
            :class:`~repro.service.cache.SharedArtifactCache`) to use
            instead of constructing one from ``checkpoint_dir``.
        observers:
            Extra observers for this run only, notified after the
            pipeline-level ones -- e.g. a :class:`repro.telemetry.Tracer`
            to record the run as a span tree, or a
            :class:`repro.faults.FaultInjector` to fire a fault plan.

        A rank failure, injected or real, is recovered by re-executing the
        stage (up to ``config.stage_max_retries`` times, recorded in
        ``result.recoveries``); a checkpoint that cannot be read degrades
        to recomputing its stage.
        """
        config = config or PipelineConfig()
        config.validate()
        t0 = time.perf_counter()
        if reads is None and not from_artifacts:
            raise PipelineError("pipeline needs reads or from_artifacts")
        ctx = self._build_context(reads, config, config.resolve_machine())
        for key, value in (from_artifacts or {}).items():
            ctx.artifacts[key] = adopt_artifact(key, value, ctx)

        ckpt = None
        if not from_artifacts:  # injected data has no provenance to fingerprint
            ckpt = checkpoint_store
            if ckpt is None and checkpoint_dir is not None:
                ckpt = CheckpointStore(checkpoint_dir)
        fingerprint = (
            base_fingerprint(config, ctx.store) if ckpt is not None else None
        )

        stage_slice = self._slice(until)
        selected = self._plan(stage_slice, ctx.artifacts)
        result = PipelineResult(config=config, world=ctx.world, counts=ctx.counts)

        def skip(stage: Stage, reason: str) -> None:
            result.stages_skipped.append((stage.name, reason))
            ctx.notify("on_stage_skip", stage.name, ctx, reason)

        try:
            for obs in self.observers + list(observers):
                _call(obs, "on_run_start", ctx)
                ctx.observers.append(obs)
            for stage in stage_slice:
                if stage.name not in selected:
                    skip(stage, "artifact")
                    continue
                if ckpt is not None:
                    fingerprint = ckpt.chain(fingerprint, stage, config)
                    if self._load(stage, ctx, ckpt, fingerprint):
                        skip(stage, "checkpoint")
                        continue
                counts_delta = self._execute(stage, ctx, result)
                if ckpt is not None:
                    ckpt.save(stage.name, fingerprint, stage, ctx, counts_delta)
                    ctx.notify(
                        "on_checkpoint", stage.name, ctx,
                        ckpt.path(stage.name, fingerprint), "save",
                    )
            # stages beyond `until` are reported as skipped, not dropped
            for stage in self.stages[len(stage_slice):]:
                skip(stage, "until")
        finally:
            wall = time.perf_counter() - t0
            for obs in reversed(ctx.observers):
                _call(obs, "on_run_end", ctx, wall)

        ctx.counts["peak_memory_bytes"] = ctx.world.memory.peak_overall()
        budget = ctx.world.memory.budget
        result.memory_budget = budget
        if budget is not None and not budget.unlimited:
            ctx.counts["memory_budget_bytes"] = budget.limit_bytes
            ctx.counts["budget_violations"] = len(budget.violations)
        result.report = TimingReport.from_clock(
            ctx.world.clock,
            ctx.machine.name,
            comm_bytes=ctx.world.log.total_bytes(),
            wall_seconds=time.perf_counter() - t0,
        )
        result.contigs = ctx.artifacts.get("contigs")
        result.align_stats = ctx.artifacts.get("align_stats")
        partial = until is not None or from_artifacts or result.contigs is None
        if partial or config.keep_graphs:
            result.artifacts = ctx.artifacts
        return result

    @staticmethod
    def _load(stage: Stage, ctx: RunContext, ckpt, fingerprint: str) -> bool:
        """Rehydrate ``stage`` from its checkpoint; False means execute it."""
        if not ckpt.has(stage.name, fingerprint):
            return False
        # the TOCTOU window: the artifact may vanish or rot between `has`
        # and `load` (observers get to widen it: fault injection does)
        ctx.notify(
            "on_checkpoint", stage.name, ctx,
            ckpt.path(stage.name, fingerprint), "load",
        )
        try:
            ckpt.load(stage, fingerprint, ctx)
        except CheckpointLoadError as exc:
            # evicted or torn: a miss, not a failure (load commits nothing
            # to ctx before it has unpacked everything)
            ctx.note(stage.name, f"checkpoint unavailable, recomputing: {exc}")
            return False
        return True

    @staticmethod
    def _execute(stage: Stage, ctx: RunContext, result: PipelineResult) -> dict:
        """Run ``stage``, re-executing it after a rank failure; returns the
        counts it changed (its checkpoint stores them beside the artifacts)."""
        missing = [k for k in stage.requires if k not in ctx.artifacts]
        if missing:
            raise PipelineError(
                f"stage {stage.name} requires missing artifact(s) "
                f"{missing}; inject them via from_artifacts or include "
                f"the producing stage"
            )
        retries = ctx.config.stage_max_retries
        artifacts_before = dict(ctx.artifacts)
        counts_before = dict(ctx.counts)
        attempt = 0
        while True:
            ctx.notify("on_stage_start", stage.name, ctx)
            modeled0 = _modeled_seconds(ctx.world, stage.name)
            wall0 = time.perf_counter()
            try:
                with ctx.world.stage_scope(stage.name):
                    stage.run(ctx)
                break
            except RankFailure as exc:
                # roll the stage's partial publishes back.  The failed
                # superstep itself charged nothing (accounting is
                # transactional), so re-execution replays from exactly
                # the inputs the last checkpoint covers and stays
                # bit-identical
                ctx.artifacts.clear()
                ctx.artifacts.update(artifacts_before)
                ctx.counts.clear()
                ctx.counts.update(counts_before)
                attempt += 1
                ctx.notify("on_stage_fail", stage.name, ctx, exc, attempt)
                if attempt > retries:
                    ctx.note(
                        stage.name,
                        f"rank failure not recovered: {stage.name} failed "
                        f"{attempt} time(s), retries exhausted: {exc}",
                    )
                    raise
                result.recoveries.append({
                    "stage": stage.name,
                    "rank": exc.rank,
                    "superstep": exc.superstep,
                    "attempt": attempt,
                })
                ctx.note(
                    stage.name,
                    f"recovery: rank {exc.rank} failed in superstep "
                    f"{exc.superstep}; re-executing {stage.name} "
                    f"(attempt {attempt + 1} of {retries + 1})",
                )
        timing = StageTiming(
            stage=stage.name,
            modeled_seconds=_modeled_seconds(ctx.world, stage.name) - modeled0,
            wall_seconds=time.perf_counter() - wall0,
        )
        result.stages_run.append(stage.name)
        ctx.notify("on_stage_end", stage.name, ctx, timing)
        return {
            k: v
            for k, v in ctx.counts.items()
            if k not in counts_before or counts_before[k] != v
        }
