"""Shared experiment harness: bench-scale datasets and pipeline sweeps.

Each ``benchmarks/bench_*.py`` regenerates one table or figure of the paper;
``repro-scaling`` / ``repro-quality`` and the job service run the same
sweeps.  This module holds what they share: bench-scale dataset
construction (with the seed-statistics-preserving error adjustment for the
high-error dataset) and pipeline sweeps over P and machines.

Modeled times are extrapolated to paper-scale volumes through
``MachineModel.scaled(scale)``: payload bytes and op counts scale linearly
with genome size while collective *counts* (the latency terms) do not --
see DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..mpi.costmodel import MACHINE_PRESETS, MachineModel
from ..pipeline import (
    Pipeline,
    PipelineConfig,
    PipelineObserver,
    PipelineResult,
)
from ..seq import PRESETS, ReadSet, build_dataset
from ..seq.datasets import DatasetPreset

__all__ = [
    "BenchDataset",
    "build_bench_dataset",
    "seed_preserving_error",
    "sweep_pipeline",
    "machine_stamp",
]

#: Grid sizes used by the scaling studies (perfect squares; the paper's
#: node counts 18..128 are not squares either -- CombBLAS pads internally).
SCALING_P = [1, 4, 16, 36, 64]


def machine_stamp() -> dict:
    """Identify the physical machine behind a bench entry.

    Wall-clock throughputs are only comparable between runs on the same
    hardware: ``benchmarks/e2e/run.py``
    stamps every result file, and the perf gate (``benchmarks/e2e/
    compare.py A B``) is meant for two files of one host.  Modeled times
    need no stamp -- they are deterministic by construction.
    """
    import os
    import platform

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def seed_preserving_error(preset: DatasetPreset, scale: int, k: int) -> float:
    """Error rate for the scaled dataset that preserves seed statistics.

    Down-scaling shortens reads, which would make the paper's 15% error
    regime lose *all* k-mer seeds (a 150 bp overlap at 15% error shares
    ~0 exact 17-mers, while the paper's 7.4 kb overlaps share ~30).  This
    picks e' such that the expected shared-seed count per overlap matches
    the paper's regime:  ov_mini * (1-e')^(2k) == ov_paper * (1-e)^(2k).
    """
    mini_len = preset.scaled_read_length(scale)
    ratio = preset.paper_read_length / mini_len
    survival_paper = (1.0 - preset.error_rate) ** (2 * k)
    target = min(ratio * survival_paper, 0.9)
    return float(1.0 - target ** (1.0 / (2 * k)))


@dataclass
class BenchDataset:
    """A bench-scale dataset plus the pipeline parameters tuned for it."""

    name: str
    readset: ReadSet
    scale: int
    k: int
    config_kwargs: dict = field(default_factory=dict)

    @property
    def genome(self) -> np.ndarray:
        return self.readset.genome

    def config(self, nprocs: int, machine) -> PipelineConfig:
        return PipelineConfig(
            nprocs=nprocs, machine=machine, k=self.k, **self.config_kwargs
        )


def build_bench_dataset(name: str, scale: int | None = None) -> BenchDataset:
    """Construct the bench-scale counterpart of a Table 2 dataset.

    The low-error datasets are built **substitution-only** at bench scale:
    the paper aligns with an indel-capable x-drop engine (SeqAn/LOGAN
    banded extension), while the bench sweeps use the fast gapless engine
    whose extension terminates at the first indel.  At 150 bp scaled reads
    even 0.1% indels truncate a large fraction of true dovetails into
    INTERNAL classifications, deleting the two-hop legs transitive
    reduction needs and collapsing the string graph.  Substitution-only
    errors at the same total rate preserve what the classifier actually
    sees at paper scale: nearly every true dovetail recovered, with
    score jitter from mismatches.  H. sapiens keeps its full indel mix and
    exercises the banded-DP path, exactly as the paper runs it with
    different parameters (k=17, x=7).
    """
    from dataclasses import replace

    preset = PRESETS[name]
    if name == "h_sapiens":
        scale = scale or 400_000
        k = 17
        error = seed_preserving_error(preset, scale, k)
        adjusted = replace(preset, error_rate=error)
        rs = build_dataset(adjusted, scale=scale)
        kwargs = dict(
            reliable_lo=2,
            xdrop=7,
            align_mode="dp",
            end_margin=40,
            tr_fuzz=150,
        )
    elif name == "o_sativa":
        scale = scale or 50_000
        k = 21
        rs = build_dataset(replace(preset, error_mix=(1.0, 0.0, 0.0)), scale=scale)
        kwargs = dict(reliable_lo=2, xdrop=15, end_margin=25)
    elif name == "c_elegans":
        scale = scale or 25_000
        k = 21
        rs = build_dataset(replace(preset, error_mix=(1.0, 0.0, 0.0)), scale=scale)
        kwargs = dict(reliable_lo=2, xdrop=15, end_margin=25)
    else:
        raise KeyError(f"unknown dataset {name!r}")
    return BenchDataset(
        name=preset.label, readset=rs, scale=scale, k=k, config_kwargs=kwargs
    )


def sweep_pipeline(
    dataset: BenchDataset,
    machine_name: str,
    nprocs_list: list[int] | None = None,
    observers: "list[PipelineObserver] | tuple" = (),
    checkpoint_dir: str | None = None,
) -> list[PipelineResult]:
    """Run the pipeline at every P with paper-volume extrapolation.

    ``observers`` are attached to the stage engine (progress/trace hooks);
    ``checkpoint_dir`` lets repeated sweeps over the same dataset reuse
    per-stage artifacts across processes (fingerprints include P, so each
    grid size keeps its own checkpoints).
    """
    nprocs_list = nprocs_list or SCALING_P
    machine = MACHINE_PRESETS[machine_name]().scaled(dataset.scale)
    pipeline = Pipeline.default(observers=observers)
    return [
        pipeline.run(
            dataset.readset,
            dataset.config(p, machine),
            checkpoint_dir=checkpoint_dir,
        )
        for p in nprocs_list
    ]
