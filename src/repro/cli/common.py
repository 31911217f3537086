"""Shared argparse plumbing for the console scripts."""

from __future__ import annotations

import argparse

from ..errors import ReproError
from ..mpi.costmodel import MACHINE_PRESETS
from ..pipeline import PipelineConfig
from ..seq.datasets import PRESETS

__all__ = [
    "add_machine_arg",
    "add_dataset_args",
    "add_pipeline_args",
    "build_pipeline_config",
    "positive_int",
    "positive_float",
    "CliError",
]


class CliError(ReproError):
    """A user-facing command-line error (bad arguments, missing files).

    Every console script's ``main`` reports a :class:`ReproError` -- this
    one or any the library raises -- as one ``error:`` line and exit 1.
    """


def positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:  # NaN compares false either way: "<= 0" would pass it
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text}")
    return value


def add_machine_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--machine",
        default="cori-haswell",
        choices=sorted(MACHINE_PRESETS),
        help="machine cost-model preset charged for modeled time",
    )


def add_dataset_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--fasta",
        help="assemble reads from this FASTA file",
    )
    group.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        help="assemble a scaled synthetic Table 2 dataset",
    )
    parser.add_argument(
        "--scale",
        type=positive_int,
        default=None,
        help="down-scaling factor for --preset (default: per-dataset)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="random seed for --preset generation",
    )


def add_pipeline_args(parser: argparse.ArgumentParser) -> None:
    """Pipeline knobs shared by every script that builds a config."""
    parser.add_argument(
        "-P",
        "--nprocs",
        type=positive_int,
        default=4,
        help="simulated ranks (perfect square)",
    )
    parser.add_argument("-k", type=positive_int, default=None, help="k-mer length")
    parser.add_argument(
        "--xdrop", type=positive_int, default=None, help="x-drop threshold"
    )
    parser.add_argument(
        "--align-mode", choices=("diag", "dp"), default=None,
        help="gapless (diag) or banded-DP alignment",
    )
    parser.add_argument(
        "--memory-mode", choices=("fast", "low"), default="fast",
        help="SpGEMM accumulation strategy (low = stream merge)",
    )
    parser.add_argument(
        "--memory-budget-mb", type=positive_float, default=None,
        help="per-rank modeled-memory cap in MB: the symbolic planner "
        "column-blocks each SpGEMM into phases that fit (results are "
        "bit-identical; overshoots are reported as budget violations)",
    )
    parser.add_argument(
        "--partition", choices=("lpt", "greedy", "round_robin"), default="lpt",
        help="contig-to-processor partitioning algorithm",
    )


def build_pipeline_config(args, ds=None) -> PipelineConfig:
    """The one place CLI arguments become a :class:`PipelineConfig`.

    ``ds`` is an optional :class:`~repro.bench.harness.BenchDataset` whose
    tuned parameters seed the config before explicit flags override them.
    """
    kwargs = dict(ds.config_kwargs) if ds is not None else {}
    cfg = PipelineConfig(
        nprocs=args.nprocs,
        machine=args.machine,
        k=args.k or (ds.k if ds is not None else 31),
        memory_mode=args.memory_mode,
        partition_method=args.partition,
        **kwargs,
    )
    if args.xdrop is not None:
        cfg.xdrop = args.xdrop
    if args.align_mode is not None:
        cfg.align_mode = args.align_mode
    if getattr(args, "memory_budget_mb", None) is not None:
        cfg.memory_budget_mb = args.memory_budget_mb
    return cfg
