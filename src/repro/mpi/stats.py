"""Instrumentation for the simulated runtime: traffic logs and stage clocks.

Two complementary views of a run are collected:

* :class:`CommLog` records every communication event (operation kind,
  communicator size, payload bytes) so benchmarks can compare *data movement*
  between algorithm variants (e.g. the paper's row-allgather + transposed
  point-to-point induced-subgraph scheme versus a naive full allgather).

* :class:`StageClock` accumulates modeled seconds per (rank, stage).  The
  pipeline time of a stage is the *maximum* over ranks -- the bulk-synchronous
  makespan -- which is what the paper's stacked-bar breakdowns (Figs. 5-6)
  plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CommEvent", "CommLog", "StageClock", "TimingReport"]


@dataclass(frozen=True)
class CommEvent:
    """A single communication operation performed by the simulator."""

    op: str
    stage: str
    nprocs: int
    total_bytes: int
    max_bytes: int
    messages: int
    modeled_seconds: float


class CommLog:
    """Append-only log of :class:`CommEvent` with aggregate queries."""

    def __init__(self) -> None:
        self.events: list[CommEvent] = []

    def record(self, event: CommEvent) -> None:
        self.events.append(event)

    # -- aggregates -----------------------------------------------------
    def total_bytes(self, op: str | None = None, stage: str | None = None) -> int:
        """Total payload bytes moved, optionally filtered by op and stage."""
        return sum(
            e.total_bytes
            for e in self.events
            if (op is None or e.op == op) and (stage is None or e.stage == stage)
        )

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)


class StageClock:
    """Per-rank modeled-time accumulator keyed by pipeline stage.

    The clock separates *compute* and *communication* charges so breakdown
    reports can show how communication-dominated each stage is (the paper
    reports the induced-subgraph function is 65-85% of contig-generation
    time, "which mainly involves communication").
    """

    def __init__(self, nprocs: int) -> None:
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = nprocs
        self._compute: dict[str, np.ndarray] = {}
        self._comm: dict[str, np.ndarray] = {}
        self._order: list[str] = []

    def _bucket(self, table: dict[str, np.ndarray], stage: str) -> np.ndarray:
        if stage not in table:
            table[stage] = np.zeros(self.nprocs)
            if stage not in self._order:
                self._order.append(stage)
        return table[stage]

    # -- charging -------------------------------------------------------
    def charge_compute(self, stage: str, rank: int, seconds: float) -> None:
        """Add compute seconds to one rank under ``stage``."""
        if not 0 <= rank < self.nprocs:
            raise IndexError(f"rank {rank} out of range [0, {self.nprocs})")
        if seconds < 0:
            raise ValueError(f"negative charge: {seconds}")
        self._bucket(self._compute, stage)[rank] += seconds

    def charge_compute_all(self, stage: str, seconds_per_rank) -> None:
        """Add compute seconds to every rank under ``stage`` in one call.

        The vectorized path every superstep's bulk charge takes: one
        array add into the stage bucket instead of ``nprocs`` scalar
        charges.
        """
        arr = np.asarray(seconds_per_rank, dtype=np.float64)
        if arr.shape != (self.nprocs,):
            raise ValueError(
                f"expected {self.nprocs} per-rank charges, got shape {arr.shape}"
            )
        if arr.size and arr.min() < 0:
            raise ValueError(f"negative charge in {arr}")
        self._bucket(self._compute, stage)[:] += arr

    def charge_comm_all(self, stage: str, seconds: float, ranks=None) -> None:
        """Add communication seconds to every (or the given) participating rank."""
        if seconds < 0:
            raise ValueError(f"negative charge: {seconds}")
        bucket = self._bucket(self._comm, stage)
        if ranks is None:
            bucket += seconds
        else:
            bucket[list(ranks)] += seconds

    # -- queries ----------------------------------------------------------
    def stages(self) -> list[str]:
        """Stage names in first-charge order."""
        return list(self._order)

    def stage_seconds(self, stage: str) -> float:
        """Bulk-synchronous makespan of one stage: max over ranks."""
        return float(self.per_rank_seconds(stage).max())

    def stage_compute_seconds(self, stage: str) -> float:
        arr = self._compute.get(stage)
        return float(arr.max()) if arr is not None else 0.0

    def stage_comm_seconds(self, stage: str) -> float:
        arr = self._comm.get(stage)
        return float(arr.max()) if arr is not None else 0.0

    def total_seconds(self) -> float:
        """Sum of stage makespans: the modeled end-to-end pipeline time."""
        return sum(self.stage_seconds(s) for s in self.stages())

    def per_rank_seconds(self, stage: str) -> np.ndarray:
        """Per-rank total (compute + comm) seconds for one stage."""
        total = np.zeros(self.nprocs)
        if stage in self._compute:
            total += self._compute[stage]
        if stage in self._comm:
            total += self._comm[stage]
        return total


@dataclass
class TimingReport:
    """Immutable summary of a pipeline run used by reports and benchmarks."""

    nprocs: int
    machine: str
    stage_seconds: dict[str, float]
    stage_comm_seconds: dict[str, float] = field(default_factory=dict)
    comm_bytes: int = 0
    wall_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    @classmethod
    def from_clock(
        cls,
        clock: StageClock,
        machine: str,
        comm_bytes: int = 0,
        wall_seconds: float = 0.0,
    ) -> "TimingReport":
        return cls(
            nprocs=clock.nprocs,
            machine=machine,
            stage_seconds={s: clock.stage_seconds(s) for s in clock.stages()},
            stage_comm_seconds={
                s: clock.stage_comm_seconds(s) for s in clock.stages()
            },
            comm_bytes=comm_bytes,
            wall_seconds=wall_seconds,
        )
