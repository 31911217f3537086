"""Rendering helpers for scaling studies and breakdown figures.

The paper's figures are stacked-bar breakdowns (Figs. 5-6) and strong-
scaling lines (Figs. 4, 6).  These helpers turn lists of
:class:`~repro.pipeline.engine.PipelineResult` into the same tables as text,
plus the derived quantities the paper reports (speedup over the smallest
run, parallel efficiency).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import MAIN_STAGES, PipelineResult, in_stage

__all__ = [
    "ScalingPoint",
    "scaling_table",
    "breakdown_table",
    "parallel_efficiency",
    "memory_table",
    "rank_breakdown_table",
]


@dataclass(frozen=True)
class ScalingPoint:
    """One (P, time) sample of a strong-scaling study."""

    nprocs: int
    modeled_seconds: float
    wall_seconds: float

    def speedup_over(self, base: "ScalingPoint") -> float:
        return base.modeled_seconds / self.modeled_seconds if self.modeled_seconds else 0.0


def parallel_efficiency(points: list[ScalingPoint]) -> list[float]:
    """Efficiency of each point relative to the smallest-P run.

    ``eff(P) = (T(P0) * P0) / (T(P) * P)`` -- the quantity behind the
    paper's "parallel efficiency up to 80% on 128 nodes".
    """
    if not points:
        return []
    base = points[0]
    return [
        (base.modeled_seconds * base.nprocs) / (pt.modeled_seconds * pt.nprocs)
        if pt.modeled_seconds > 0
        else 0.0
        for pt in points
    ]


def scaling_table(label: str, results: list[PipelineResult]) -> str:
    """Fig. 4/6-style strong-scaling table with speedup and efficiency."""
    points = [
        ScalingPoint(
            nprocs=r.config.nprocs,
            modeled_seconds=r.modeled_total,
            wall_seconds=r.report.wall_seconds,
        )
        for r in results
    ]
    effs = parallel_efficiency(points)
    lines = [
        f"strong scaling -- {label}",
        f"{'P':>6}{'modeled(s)':>14}{'speedup':>10}{'efficiency':>12}{'wall(s)':>10}",
    ]
    for pt, eff in zip(points, effs):
        lines.append(
            f"{pt.nprocs:>6}{pt.modeled_seconds:>14.3f}"
            f"{pt.speedup_over(points[0]):>10.2f}{eff:>11.1%}"
            f"{pt.wall_seconds:>10.2f}"
        )
    return "\n".join(lines)


def memory_table(label: str, results: list[PipelineResult]) -> str:
    """Per-stage modeled peak-memory table with budget attribution.

    One column per run; rows are the per-rank peak working set of each
    stage the meter saw, plus the run-wide peak, the configured budget
    (``-`` when unlimited) and the number of recorded budget violations.
    """
    stages: list[str] = []
    for r in results:
        for s in r.world.memory.stages():
            if s not in stages:
                stages.append(s)
    # number the columns: runs at the same P (e.g. budgeted vs not) must
    # stay distinguishable
    header = f"{'stage peak (MB)':<20}" + "".join(
        f"{f'#{i} P={r.config.nprocs}':<12}"
        for i, r in enumerate(results, 1)
    )
    lines = [f"memory -- {label}", header]
    for stage in stages:
        row = f"{stage:<20}"
        for r in results:
            row += f"{r.world.memory.stage_peak(stage) / 1e6:<12.3f}"
        lines.append(row)
    overall = f"{'overall':<20}" + "".join(
        f"{r.peak_memory_bytes / 1e6:<12.3f}" for r in results
    )
    lines.append(overall)
    budgets, violations = f"{'budget':<20}", f"{'violations':<20}"
    for r in results:
        b = r.memory_budget
        cap = (
            "-"
            if b is None or b.unlimited
            else f"{b.limit_bytes / 1e6:.3f}"
        )
        budgets += f"{cap:<12}"
        violations += f"{len(r.budget_violations):<12}"
    lines.append(budgets)
    lines.append(violations)
    return "\n".join(lines)


def rank_breakdown_table(label: str, result: PipelineResult) -> str:
    """Fig. 5-style per-rank breakdown of one run.

    One row per rank, one column per main stage, in modeled seconds;
    the footer reports each stage's makespan (max over ranks), its
    median rank, and the max/mean load imbalance -- the quantity the
    paper's partitioning comparison optimizes.
    """
    clock = result.world.clock
    nprocs = clock.nprocs
    charged = clock.stages()
    # a main stage may appear only through its substages (ExtractContig
    # charges everything under "ExtractContig/..."), so match on either
    stages = [s for s in MAIN_STAGES if any(in_stage(n, s) for n in charged)]
    per_rank = {
        s: (
            clock.per_rank_seconds(s)
            if s in charged
            else np.zeros(nprocs)
        )
        for s in stages
    }
    # fold substage charges ("ExtractContig/...") into their main stage
    for name in charged:
        if "/" in name:
            main = name.split("/", 1)[0]
            if main in per_rank:
                per_rank[main] = per_rank[main] + clock.per_rank_seconds(name)
    header = f"{'rank':<6}" + "".join(f"{s:>16}" for s in stages)
    lines = [f"per-rank breakdown -- {label}", header]
    for rank in range(nprocs):
        row = f"{rank:<6}" + "".join(
            f"{per_rank[s][rank]:>16.5f}" for s in stages
        )
        lines.append(row)
    def imbalance(arr) -> float:
        mean = float(arr.mean()) if arr.size else 0.0
        return float(arr.max()) / mean if mean > 0 else 1.0

    lines.append(
        f"{'max':<6}" + "".join(f"{per_rank[s].max():>16.5f}" for s in stages)
    )
    lines.append(
        f"{'p50':<6}" + "".join(
            f"{np.percentile(per_rank[s], 50.0):>16.5f}" for s in stages
        )
    )
    lines.append(
        f"{'imbal':<6}" + "".join(
            f"{imbalance(per_rank[s]):>16.2f}" for s in stages
        )
    )
    return "\n".join(lines)


def breakdown_table(label: str, results: list[PipelineResult]) -> str:
    """Fig. 5/6-style stacked breakdown table (one column per P)."""
    header = f"{'stage':<16}" + "".join(
        f"P={r.config.nprocs:<10}" for r in results
    )
    lines = [f"runtime breakdown -- {label}", header]
    for stage in MAIN_STAGES:
        row = f"{stage:<16}"
        for r in results:
            row += f"{r.stage_seconds(stage):<12.4f}"
        lines.append(row)
    totals = f"{'total':<16}" + "".join(
        f"{r.modeled_total:<12.4f}" for r in results
    )
    lines.append(totals)
    # contig-phase internal split (the 65-85% induced-subgraph claim)
    lines.append("")
    lines.append("ExtractContig substages (fraction of contig phase):")
    for r in results:
        sub = r.contig_substage_breakdown()
        total = sum(sub.values()) or 1.0
        parts = "  ".join(f"{k}={v / total:.0%}" for k, v in sub.items())
        lines.append(f"  P={r.config.nprocs}: {parts}")
    return "\n".join(lines)
