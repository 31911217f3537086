"""``repro-scaling``: strong-scaling sweeps from the command line."""

from __future__ import annotations

import argparse
import math
import sys

from ..bench.harness import build_bench_dataset, sweep_pipeline
from ..errors import ReproError
from ..pipeline.report import breakdown_table, scaling_table
from ..seq.datasets import PRESETS
from .common import CliError, add_machine_arg, positive_int

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-scaling",
        description=(
            "Sweep the full pipeline over grid sizes and print Fig. 4/5-"
            "style strong-scaling and stage-breakdown tables."
        ),
    )
    parser.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default="c_elegans",
        help="Table 2 synthetic dataset to sweep",
    )
    parser.add_argument(
        "--scale", type=positive_int, default=None,
        help="down-scaling factor (default: per-dataset)",
    )
    add_machine_arg(parser)
    parser.add_argument(
        "-P",
        "--nprocs",
        type=positive_int,
        nargs="+",
        default=[1, 4, 16, 36, 64],
        help="grid sizes to sweep (each a perfect square)",
    )
    parser.add_argument(
        "--breakdown", action="store_true",
        help="also print the per-stage breakdown table",
    )
    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    """Parse arguments, sweep the pipeline over the grid sizes, and print the scaling (and optional breakdown) tables; returns a process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for p in args.nprocs:
            if math.isqrt(p) ** 2 != p:
                raise CliError(
                    f"grid size {p} is not a perfect square (the 2D grid "
                    "needs sqrt(P) x sqrt(P) ranks)"
                )
        ds = build_bench_dataset(args.preset, scale=args.scale)
        results = sweep_pipeline(ds, args.machine, list(args.nprocs))
        label = f"{ds.name} on {args.machine}"
        print(scaling_table(label, results), file=out)
        if args.breakdown:
            print("", file=out)
            print(breakdown_table(label, results), file=out)
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
