"""Pipeline configuration (the ELBA command line, as a dataclass)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from ..errors import PipelineError
from ..mpi.bigcount import MPI_COUNT_LIMIT
from ..mpi.costmodel import MACHINE_PRESETS, MachineModel

__all__ = ["PipelineConfig", "EXECUTION_FIELDS"]

#: Knobs that choose *how* a run executes, never *what* it computes: every
#: artifact comes out bit-identical at any value (the identity tests gate
#: this per knob), so a checkpoint written under one setting must resume
#: under any other.  No stage's ``config_fields`` names one of them, so
#: none can reach a checkpoint fingerprint.
EXECUTION_FIELDS = frozenset({
    "memory_mode", "memory_budget_mb", "stage_max_retries", "keep_graphs",
})


@dataclass
class PipelineConfig:
    """All knobs of an ELBA run.

    Defaults mirror the paper's settings for low-error data (k = 31,
    x-drop = 15); use ``k=17, xdrop=7, align_mode="dp"`` for high-error
    inputs like the H. sapiens preset.
    """

    nprocs: int = 4
    machine: str | MachineModel = "cori-haswell"
    # constants, not fields (nothing to choose, nothing to fingerprint),
    # kept for callers that still read them: supersteps run on the
    # calling thread; the numpy batch kernels are the one kernel tier;
    # local assembly runs the batch engine under MPI's count limit; §7
    # polishing is no stage (``repro.scaffold.polish_contigs`` does it)
    executor: ClassVar[str] = "serial"
    kernel_tier: ClassVar[str] = "numpy"
    contig_engine: ClassVar[str] = "batch"
    count_limit: ClassVar[int] = MPI_COUNT_LIMIT
    polish: ClassVar[bool] = False
    # k-mer stage
    k: int = 31
    reliable_lo: int = 2
    reliable_hi: int | None = None
    # overlap + alignment stage
    min_shared_kmers: int = 1
    xdrop: int = 15
    align_mode: str = "diag"
    # pairs per batched-aligner kernel call, counted across the ranks of
    # one Alignment segment: a constant, as results are independent of it
    align_batch_size: ClassVar[int] = 2048
    min_score: int = 0
    min_overlap: int = 0
    end_margin: int = 10
    # transitive reduction
    tr_fuzz: int = 100
    tr_max_rounds: int = 8
    # contig generation
    min_contig_reads: int = 2
    partition_method: str = "lpt"
    emit_cycles: bool = False
    # memory strategy the SpGEMM kernels model (paper §7 future work):
    # "fast" keeps all SUMMA partials live (CombBLAS default), "low"
    # streams each stage into the accumulator, charging merge passes for a
    # smaller modeled peak working set; the host computes the same either way
    memory_mode: str = "fast"
    # per-rank modeled-memory cap in MB for the SpGEMM kernels (None =
    # unlimited).  When set, the symbolic phase planner column-blocks each
    # SUMMA product so the transient working set fits, and every observed
    # overshoot is recorded as a budget violation on the result.
    memory_budget_mb: float | None = None
    # how many times the engine re-executes a stage after a rank failure
    # (injected or detected) before giving up.  Recovery rolls the stage's
    # artifacts back and replays it from its checkpointed inputs --
    # transactional superstep accounting guarantees the failed attempt
    # charged nothing
    stage_max_retries: int = 3
    # retain the intermediate R (overlap) and S (string) matrices on the
    # result for inspection/export (GFA/PAF); off by default since they
    # are the run's largest objects
    keep_graphs: bool = False

    @property
    def merge_mode(self) -> str:
        """The SpGEMM accumulation strategy implied by ``memory_mode``."""
        return "stream" if self.memory_mode == "low" else "bulk"

    def memory_budget(self):
        """A fresh :class:`~repro.mpi.memory.MemoryBudget` for one run
        (``None`` when no cap is configured)."""
        if self.memory_budget_mb is None:
            return None
        from ..mpi.memory import MemoryBudget

        return MemoryBudget.from_mb(self.memory_budget_mb)

    def resolve_machine(self) -> MachineModel:
        if isinstance(self.machine, MachineModel):
            return self.machine
        try:
            return MACHINE_PRESETS[self.machine]()
        except KeyError:
            raise PipelineError(
                f"unknown machine preset {self.machine!r}; "
                f"options: {sorted(MACHINE_PRESETS)}"
            ) from None

    def validate(self) -> None:
        if self.nprocs < 1:
            raise PipelineError(f"nprocs must be >= 1, got {self.nprocs}")
        if math.isqrt(self.nprocs) ** 2 != self.nprocs:
            raise PipelineError(
                f"nprocs must be a perfect square for the 2D grid, "
                f"got {self.nprocs}"
            )
        if not 1 <= self.k <= 31:
            raise PipelineError(f"k must be in [1, 31], got {self.k}")
        # integer knobs with a floor: below it a stage fails mid-run or the
        # run silently assembles nothing
        for name, floor in (
            ("stage_max_retries", 0), ("reliable_lo", 1),
            ("min_shared_kmers", 1), ("xdrop", 0), ("tr_fuzz", 0),
            ("tr_max_rounds", 0),
            ("end_margin", 0), ("min_overlap", 0), ("min_contig_reads", 1),
        ):
            if getattr(self, name) < floor:
                raise PipelineError(
                    f"{name} must be >= {floor}, got {getattr(self, name)}"
                )
        if self.reliable_hi is not None and self.reliable_hi < self.reliable_lo:
            raise PipelineError(
                f"reliable_hi ({self.reliable_hi}) must be >= reliable_lo "
                f"({self.reliable_lo})"
            )
        if self.align_mode not in ("diag", "dp"):
            raise PipelineError(f"unknown align_mode {self.align_mode!r}")
        if self.partition_method not in ("lpt", "greedy", "round_robin"):
            raise PipelineError(
                f"unknown partition_method {self.partition_method!r}"
            )
        if self.memory_mode not in ("fast", "low"):
            raise PipelineError(
                f"unknown memory_mode {self.memory_mode!r}; "
                "options: fast, low"
            )
        # NaN compares false either way: ``<= 0`` would let it through
        if self.memory_budget_mb is not None and not self.memory_budget_mb > 0:
            raise PipelineError(
                f"memory_budget_mb must be positive, got {self.memory_budget_mb}"
            )
