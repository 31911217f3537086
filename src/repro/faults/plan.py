"""Declarative, seeded fault plans.

A :class:`FaultPlan` is a JSON-able list of :class:`FaultRule` entries
plus a seed.  Rules say *what* goes wrong and *where* -- a rank dying in
a named superstep, a straggler stall, a checkpoint corrupted on save or
load, a cache entry evicted between ``has`` and ``load``, a worker
process killed after a stage -- and the :class:`~repro.faults.injector.
FaultInjector` decides *when* each armed rule fires.  Every rule carries
``max_fires``, so any plan eventually stops injecting; that bound is
what turns the chaos suite's digest-equality check into a convergence
proof rather than a race.

Plans are data, not code: they round-trip through dicts and JSON files
(``--fault-plan plan.json``), and :meth:`FaultPlan.random` derives a
reproducible plan from a single integer seed for property testing.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..errors import FaultPlanError

__all__ = [
    "FaultRule",
    "FaultPlan",
    "FAULT_KINDS",
    "rank_crash",
    "stall",
    "checkpoint_corrupt",
    "cache_evict_race",
    "worker_kill",
]

#: every rule kind the injector understands
FAULT_KINDS = (
    "rank_crash",
    "stall",
    "checkpoint_corrupt",
    "cache_evict_race",
    "worker_kill",
)

#: checkpoint corruption modes / worker-kill modes
CORRUPT_MODES = ("truncate", "bitflip")
KILL_MODES = ("sim", "sigkill")


@dataclass(frozen=True)
class FaultRule:
    """One declarative fault: what fails, where, and how often.

    Field use depends on ``kind``:

    * ``rank_crash`` -- ``rank`` (required), ``stage``/``superstep``
      (``None`` matches any), ``max_fires``;
    * ``stall`` -- ``rank``, ``seconds`` of modeled straggler time
      charged after the matching superstep;
    * ``checkpoint_corrupt`` -- ``stage`` (``None`` = any), ``when`` in
      ``{"save", "load"}``, ``mode`` in ``{"truncate", "bitflip"}``;
    * ``cache_evict_race`` -- ``stage``; the artifact vanishes between
      the engine's ``has`` and ``load`` (the TOCTOU window);
    * ``worker_kill`` -- ``after_stage`` (kill when that stage ends)
      and/or ``after_n_events`` (kill at the N-th kill-site check);
      ``mode`` is ``"sigkill"`` (real SIGKILL) or ``"sim"`` (raise
      :class:`~repro.faults.injector.InjectedWorkerDeath` in-process).
    """

    kind: str
    stage: str | None = None
    superstep: int | None = None
    rank: int | None = None
    seconds: float = 0.0
    mode: str = ""
    when: str = "save"
    after_stage: str | None = None
    after_n_events: int | None = None
    max_fires: int = 1

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; options: {FAULT_KINDS}"
            )
        if self.max_fires < 1:
            raise FaultPlanError(
                f"{self.kind}: max_fires must be >= 1, got {self.max_fires}"
            )
        if self.kind in ("rank_crash", "stall"):
            if self.rank is None or self.rank < 0:
                raise FaultPlanError(f"{self.kind} needs a rank >= 0")
            if self.superstep is not None and self.superstep < 0:
                raise FaultPlanError(f"{self.kind}: superstep must be >= 0")
        if self.kind == "stall" and self.seconds <= 0:
            raise FaultPlanError("stall needs seconds > 0")
        if self.kind == "checkpoint_corrupt":
            if self.when not in ("save", "load"):
                raise FaultPlanError(
                    f"checkpoint_corrupt: when must be save|load, "
                    f"got {self.when!r}"
                )
            if self.mode not in CORRUPT_MODES:
                raise FaultPlanError(
                    f"checkpoint_corrupt: mode must be one of "
                    f"{CORRUPT_MODES}, got {self.mode!r}"
                )
        if self.kind == "worker_kill":
            if self.after_stage is None and self.after_n_events is None:
                raise FaultPlanError(
                    "worker_kill needs after_stage and/or after_n_events"
                )
            if self.after_n_events is not None and self.after_n_events < 1:
                raise FaultPlanError("worker_kill: after_n_events must be >= 1")
            if self.mode not in KILL_MODES:
                raise FaultPlanError(
                    f"worker_kill: mode must be one of {KILL_MODES}, "
                    f"got {self.mode!r}"
                )

    def to_dict(self) -> dict:
        d = asdict(self)
        # keep serialized rules readable: drop fields at their defaults
        defaults = FaultRule(kind=self.kind)
        return {
            k: v for k, v in d.items()
            if k == "kind" or v != getattr(defaults, k)
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FaultRule":
        try:
            rule = cls(**dict(d))
        except TypeError as exc:
            raise FaultPlanError(f"bad fault rule {d!r}: {exc}") from exc
        rule.validate()
        return rule


# -- rule constructors (the spelling used in tests and docs) ---------------


def rank_crash(
    stage: str | None = None,
    superstep: int | None = None,
    rank: int = 0,
    max_fires: int = 1,
) -> FaultRule:
    """Rank ``rank`` fails a superstep before any rank's step runs;
    ``None`` stage/superstep = any."""
    return FaultRule(
        kind="rank_crash", stage=stage, superstep=superstep, rank=rank,
        max_fires=max_fires,
    )


def stall(
    rank: int,
    seconds: float,
    stage: str | None = None,
    superstep: int | None = None,
    max_fires: int = 1,
) -> FaultRule:
    """Charge ``seconds`` of modeled straggler time to one rank."""
    return FaultRule(
        kind="stall", stage=stage, superstep=superstep, rank=rank,
        seconds=float(seconds), max_fires=max_fires,
    )


def checkpoint_corrupt(
    stage: str | None = None,
    when: str = "save",
    mode: str = "truncate",
    max_fires: int = 1,
) -> FaultRule:
    """Corrupt a stage's checkpoint file on ``save`` or before ``load``."""
    return FaultRule(
        kind="checkpoint_corrupt", stage=stage, when=when, mode=mode,
        max_fires=max_fires,
    )


def cache_evict_race(
    stage: str | None = None, max_fires: int = 1
) -> FaultRule:
    """Delete the artifact between ``has`` and ``load`` (TOCTOU race)."""
    return FaultRule(kind="cache_evict_race", stage=stage, max_fires=max_fires)


def worker_kill(
    after_stage: str | None = None,
    after_n_events: int | None = None,
    mode: str = "sim",
    max_fires: int = 1,
) -> FaultRule:
    """Kill the worker process (or simulate it) at a kill-site check."""
    return FaultRule(
        kind="worker_kill", after_stage=after_stage,
        after_n_events=after_n_events, mode=mode, max_fires=max_fires,
    )


# -- the plan --------------------------------------------------------------


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered tuple of fault rules."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def validate(self) -> None:
        for rule in self.rules:
            rule.validate()

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "rules": [r.to_dict() for r in self.rules],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        if not isinstance(d, dict):
            raise FaultPlanError(f"fault plan must be an object, got {d!r}")
        rules = d.get("rules", [])
        if not isinstance(rules, (list, tuple)):
            raise FaultPlanError("fault plan 'rules' must be a list")
        return cls(
            seed=int(d.get("seed", 0)),
            rules=tuple(FaultRule.from_dict(r) for r in rules),
        )

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        """Read a plan from a JSON file (the ``--fault-plan`` format)."""
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise FaultPlanError(f"cannot read fault plan {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"bad JSON in fault plan {path!r}: {exc}") from exc
        return cls.from_dict(data)

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def random(
        cls,
        seed: int,
        stages: tuple[str, ...] | list[str] = (
            "CountKmer", "DetectOverlap", "Alignment",
            "TrReduction", "ExtractContig",
        ),
        nprocs: int = 4,
        max_rules: int = 4,
    ) -> "FaultPlan":
        """A reproducible plan derived from one integer seed.

        Used by the chaos property suite: the same seed always yields the
        same plan.  Crashes are capped at two per plan so a stage never
        outruns the engine's retry budget, and worker kills always use
        ``"sim"`` mode so the test process survives its own chaos.
        """
        import numpy as np

        rng = np.random.default_rng(seed)
        stages = tuple(stages)
        rules: list[FaultRule] = []
        crashes = kills = 0
        for _ in range(int(rng.integers(1, max_rules + 1))):
            kind = FAULT_KINDS[int(rng.integers(0, len(FAULT_KINDS)))]
            if kind == "rank_crash":
                if crashes >= 2:
                    kind = "stall"
                else:
                    crashes += 1
            if kind == "worker_kill" and kills >= 2:
                kind = "cache_evict_race"
            stage = stages[int(rng.integers(0, len(stages)))]
            if kind == "rank_crash":
                rules.append(rank_crash(
                    stage=stage,
                    superstep=int(rng.integers(0, 3)),
                    rank=int(rng.integers(0, nprocs)),
                ))
            elif kind == "stall":
                rules.append(stall(
                    rank=int(rng.integers(0, nprocs)),
                    seconds=round(float(rng.uniform(0.5, 5.0)), 3),
                    stage=stage,
                    superstep=int(rng.integers(0, 3)),
                ))
            elif kind == "checkpoint_corrupt":
                rules.append(checkpoint_corrupt(
                    stage=stage,
                    when=("save", "load")[int(rng.integers(0, 2))],
                    mode=CORRUPT_MODES[int(rng.integers(0, 2))],
                ))
            elif kind == "cache_evict_race":
                rules.append(cache_evict_race(stage=stage))
            else:
                kills += 1
                rules.append(worker_kill(after_stage=stage, mode="sim"))
        return cls(seed=seed, rules=tuple(rules))
