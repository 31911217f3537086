"""Bench-scale datasets and pipeline sweeps (CLI, service, benchmarks)."""

from .harness import (
    SCALING_P,
    BenchDataset,
    build_bench_dataset,
    machine_stamp,
    seed_preserving_error,
    sweep_pipeline,
)

__all__ = [
    "SCALING_P",
    "BenchDataset",
    "build_bench_dataset",
    "seed_preserving_error",
    "sweep_pipeline",
    "machine_stamp",
]
