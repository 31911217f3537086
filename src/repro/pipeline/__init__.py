"""End-to-end pipeline: the stage engine, configuration, and reporting."""

from .checkpoint import CheckpointLoadError, CheckpointStore
from .config import PipelineConfig
from .engine import (
    MAIN_STAGES,
    CollectingObserver,
    Pipeline,
    PipelineObserver,
    PipelineResult,
    RunContext,
    Stage,
    StageTiming,
    TraceObserver,
)
from .report import (
    ScalingPoint,
    breakdown_table,
    memory_table,
    parallel_efficiency,
    rank_breakdown_table,
    scaling_table,
)

__all__ = [
    "PipelineConfig",
    "PipelineResult",
    "MAIN_STAGES",
    "Pipeline",
    "Stage",
    "RunContext",
    "StageTiming",
    "PipelineObserver",
    "TraceObserver",
    "CollectingObserver",
    "CheckpointStore",
    "CheckpointLoadError",
    "ScalingPoint",
    "scaling_table",
    "breakdown_table",
    "rank_breakdown_table",
    "memory_table",
    "parallel_efficiency",
]
