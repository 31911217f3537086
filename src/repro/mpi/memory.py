"""Per-rank working-set tracking for the simulated runtime.

The paper's future work (§7) includes *"reduc[ing] the memory consumption
of ELBA so that we can assemble large genomes at low concurrency"*.  To
evaluate that here, the simulator tracks the transient working set of the
memory-dominant kernels: each kernel calls :meth:`MemoryMeter.observe` with
its current live bytes per rank, and the meter keeps high-water marks per
rank and per pipeline stage.

This is *modeled* memory, like modeled time: it counts the bytes of the
matrix blocks, broadcast buffers and partial products a real rank would
hold live at the same point in the algorithm, scaled by the machine's
``volume_scale`` so bench numbers extrapolate to paper-sized inputs the
same way modeled seconds do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MemoryMeter", "MemoryBudget", "BudgetViolation"]


@dataclass(frozen=True)
class BudgetViolation:
    """One working-set sample that exceeded the per-rank budget."""

    stage: str
    rank: int
    nbytes: float
    limit_bytes: float

    @property
    def excess_bytes(self) -> float:
        return self.nbytes - self.limit_bytes


class MemoryBudget:
    """A per-rank modeled-memory cap the kernels plan against.

    The budget plays two roles:

    * **planning** -- the SpGEMM phase planner
      (:class:`~repro.sparse.distmat.SpgemmPlan`) asks :meth:`headroom`
      how many transient bytes a rank may hold and sizes its column
      phases so the symbolic estimate fits;
    * **auditing** -- a :class:`MemoryMeter` with the budget attached
      records a :class:`BudgetViolation` whenever an observed working set
      sets a new per-stage high-water mark above the cap.  Violations are
      surfaced on the pipeline result, so a run that could not fit its
      budget says so instead of silently overshooting.

    Limits are *modeled* bytes (post ``volume_scale``), like everything
    the meter tracks.  ``limit_bytes=None`` means unlimited: planning
    degenerates to a single phase and nothing is ever recorded.
    """

    def __init__(self, limit_bytes: float | None) -> None:
        if limit_bytes is not None and limit_bytes <= 0:
            raise ValueError(f"budget must be positive, got {limit_bytes}")
        self.limit_bytes = None if limit_bytes is None else float(limit_bytes)
        self.violations: list[BudgetViolation] = []
        #: the budget tracks its own per-(stage, rank) high-water marks so
        #: auditing stays correct on a reused world whose meter still holds
        #: marks from earlier runs
        self._highwater: dict[tuple[str, int], float] = {}

    @classmethod
    def from_mb(cls, megabytes: float | None) -> "MemoryBudget":
        if megabytes is None:
            return cls(None)
        return cls(float(megabytes) * 1e6)

    @property
    def unlimited(self) -> bool:
        return self.limit_bytes is None

    def headroom(self, used_bytes: float = 0.0) -> float:
        """Bytes still available under the cap after ``used_bytes``."""
        if self.limit_bytes is None:
            return float("inf")
        return max(self.limit_bytes - float(used_bytes), 0.0)

    def fits(self, nbytes: float) -> bool:
        return self.limit_bytes is None or nbytes <= self.limit_bytes

    def audit(self, stage: str, rank: int, nbytes: float) -> None:
        """Record a violation when ``nbytes`` sets a new (stage, rank)
        high-water mark above the cap (called by the meter per sample), so
        a long-lived working set yields one record per escalation rather
        than one per observation."""
        if self.limit_bytes is None or nbytes <= self.limit_bytes:
            return
        key = (stage, int(rank))
        if nbytes > self._highwater.get(key, 0.0):
            self._highwater[key] = float(nbytes)
            self.record(stage, rank, nbytes)

    def record(self, stage: str, rank: int, nbytes: float) -> None:
        """Append one violation record unconditionally."""
        if self.limit_bytes is None:
            return
        self.violations.append(
            BudgetViolation(
                stage=stage,
                rank=int(rank),
                nbytes=float(nbytes),
                limit_bytes=self.limit_bytes,
            )
        )

    def violated_stages(self) -> list[str]:
        """Stage labels with at least one violation, first-seen order."""
        seen: list[str] = []
        for v in self.violations:
            if v.stage not in seen:
                seen.append(v.stage)
        return seen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "unlimited" if self.limit_bytes is None else f"{self.limit_bytes:.0f}B"
        return f"MemoryBudget({cap}, violations={len(self.violations)})"


class MemoryMeter:
    """High-water-mark tracker for per-rank modeled working sets.

    A :class:`MemoryBudget` may be attached with :meth:`set_budget`; the
    meter then audits every observation against the cap and attributes
    violations to the pipeline stage that over-allocated.
    """

    def __init__(self, nprocs: int) -> None:
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = nprocs
        self.budget: MemoryBudget | None = None
        self._peak = np.zeros(nprocs, dtype=np.float64)
        self._stage_peaks: dict[str, np.ndarray] = {}
        self._order: list[str] = []

    # ------------------------------------------------------------------
    def set_budget(self, budget: MemoryBudget | None) -> None:
        """Attach (or detach) the budget observations are audited against."""
        self.budget = budget

    def observe(self, rank: int, nbytes: float, stage: str = "default") -> None:
        """Record that ``rank`` currently holds ``nbytes`` of live payload."""
        if not 0 <= rank < self.nprocs:
            raise IndexError(f"rank {rank} out of range [0, {self.nprocs})")
        if nbytes < 0:
            raise ValueError(f"negative byte count: {nbytes}")
        if nbytes > self._peak[rank]:
            self._peak[rank] = nbytes
        if stage not in self._stage_peaks:
            self._stage_peaks[stage] = np.zeros(self.nprocs, dtype=np.float64)
            self._order.append(stage)
        if self.budget is not None:
            self.budget.audit(stage, rank, nbytes)
        bucket = self._stage_peaks[stage]
        if nbytes > bucket[rank]:
            bucket[rank] = nbytes

    # ------------------------------------------------------------------
    def peak(self, rank: int) -> float:
        """Highest working set ever observed on one rank (bytes)."""
        return float(self._peak[rank])

    def peak_overall(self) -> float:
        """Highest working set observed on any rank (bytes)."""
        return float(self._peak.max()) if self.nprocs else 0.0

    def stages(self) -> list[str]:
        return list(self._order)

    def stage_peak(self, stage: str) -> float:
        """Highest per-rank working set observed under one stage label."""
        arr = self._stage_peaks.get(stage)
        return float(arr.max()) if arr is not None else 0.0

    def by_stage(self) -> dict[str, float]:
        return {s: self.stage_peak(s) for s in self._order}
