"""Simulated distributed-memory runtime (substrate for all of repro).

The public surface mirrors the pieces of MPI + CombBLAS process management
that ELBA uses: a world of P ranks (:class:`SimWorld`), communicators with
the collectives the paper names (:class:`SimComm`), the sqrt(P) x sqrt(P)
process grid (:class:`ProcGrid`), machine cost models, and instrumentation.
"""

from .bigcount import MPI_COUNT_LIMIT, TransferPlan, plan_transfer
from .comm import (
    RoutePlan,
    SimComm,
    SimWorld,
    block_owner,
    block_range,
    block_sizes,
    payload_nbytes,
)
from .executor import RankContext, RankStep
from .costmodel import (
    MACHINE_PRESETS,
    MachineModel,
    aws_hpc,
    cori_haswell,
    summit_cpu,
    zero_cost,
)
from .grid import ProcGrid
from .memory import BudgetViolation, MemoryBudget, MemoryMeter
from .stats import CommEvent, CommLog, StageClock, TimingReport

__all__ = [
    "SimWorld",
    "SimComm",
    "RoutePlan",
    "RankContext",
    "RankStep",
    "ProcGrid",
    "MachineModel",
    "cori_haswell",
    "summit_cpu",
    "aws_hpc",
    "zero_cost",
    "MACHINE_PRESETS",
    "MemoryMeter",
    "MemoryBudget",
    "BudgetViolation",
    "CommEvent",
    "CommLog",
    "StageClock",
    "TimingReport",
    "MPI_COUNT_LIMIT",
    "TransferPlan",
    "plan_transfer",
    "payload_nbytes",
    "block_range",
    "block_sizes",
    "block_owner",
]
