"""``repro-quality``: QUAST-style evaluation of a contig FASTA."""

from __future__ import annotations

import argparse
import sys

from ..errors import ReproError
from ..quality import evaluate_assembly
from ..seq.fasta import read_fasta
from .common import CliError, positive_int

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-quality",
        description=(
            "Evaluate an assembly against a reference genome: completeness,"
            " longest contig, contig count, misassemblies, N50/NG50"
            " (the paper's Table 4 metrics)."
        ),
    )
    parser.add_argument("contigs", help="assembly FASTA to evaluate")
    parser.add_argument("reference", help="reference genome FASTA")
    parser.add_argument(
        "-k", type=positive_int, default=31, help="anchor k-mer length"
    )
    parser.add_argument(
        "--break-threshold", type=positive_int, default=1000,
        help="reference-jump distance that counts as a misassembly",
    )
    parser.add_argument(
        "--per-contig", action="store_true",
        help="also print one mapping line per contig",
    )
    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    """Parse arguments, evaluate the assembly against the reference, and print the Table 4 metrics; returns a process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            _, contigs = read_fasta(args.contigs)
        except OSError as exc:
            raise CliError(f"cannot read contigs {args.contigs!r}: {exc}") from exc
        try:
            _, refs = read_fasta(args.reference)
        except OSError as exc:
            raise CliError(
                f"cannot read reference {args.reference!r}: {exc}"
            ) from exc
        if not refs:
            raise CliError(f"no sequences in reference {args.reference!r}")
        if len(refs) > 1:
            raise CliError(
                "multi-sequence references are not supported; concatenate "
                "chromosomes or evaluate one at a time"
            )
        report = evaluate_assembly(
            contigs, refs[0], k=args.k, break_threshold=args.break_threshold
        )
        print(report.row(), file=out)
        print(
            f"n50={report.n50}  ng50={report.ng50}  "
            f"total_bases={report.total_bases}  "
            f"duplication={report.duplication_ratio:.2f}  "
            f"unaligned={report.unaligned_contigs}",
            file=out,
        )
        if args.per_contig:
            for m in report.mappings:
                status = (
                    "unaligned"
                    if m.unaligned
                    else "misassembled"
                    if m.misassembled
                    else "ok"
                )
                print(
                    f"  contig_{m.contig_index}: len={m.length} "
                    f"blocks={len(m.blocks)} {status}",
                    file=out,
                )
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
