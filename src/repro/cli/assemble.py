"""``repro-assemble``: run the ELBA pipeline from the command line."""

from __future__ import annotations

import argparse
import os
import sys

from ..bench.harness import build_bench_dataset
from ..errors import ReproError
from ..pipeline import MAIN_STAGES, Pipeline, TraceObserver
from ..quality import evaluate_assembly
from ..scaffold import (
    PolishConfig,
    ScaffoldConfig,
    gap_fill,
    polish_contigs,
    scaffold_contigs,
)
from ..seq.fasta import read_fasta, write_fasta
from .common import (
    CliError,
    add_dataset_args,
    add_machine_arg,
    add_pipeline_args,
    build_pipeline_config,
)

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-assemble",
        description=(
            "De novo long-read assembly with the distributed contig-"
            "generation pipeline (simulated P-rank grid)."
        ),
    )
    add_dataset_args(parser)
    add_machine_arg(parser)
    add_pipeline_args(parser)
    parser.add_argument(
        "--until", choices=MAIN_STAGES, default=None, metavar="STAGE",
        help="stop the pipeline after this stage "
             f"({', '.join(MAIN_STAGES)})",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="save stage checkpoints to DIR (reused on a later run)",
    )
    parser.add_argument(
        "--resume-from", default=None, metavar="DIR",
        help="resume from an existing checkpoint directory: stages whose "
             "configuration is unchanged are loaded instead of recomputed",
    )
    parser.add_argument(
        "--fault-plan", default=None, metavar="FILE",
        help="inject a seeded JSON fault plan (repro.faults.FaultPlan "
        "schema) into this run: rank crashes and stalls at superstep "
        "boundaries, checkpoint corruption, cache-eviction races; the "
        "engine recovers and reports every injection",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="print per-stage progress lines as the pipeline runs",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="record a span trace over the modeled clock and write it to "
        "FILE: Chrome trace-event JSON (open at chrome://tracing or "
        "ui.perfetto.dev), or flat JSONL when FILE ends in .jsonl",
    )
    parser.add_argument(
        "--scaffold", action="store_true",
        help="merge contigs with the scaffolding extension after assembly",
    )
    parser.add_argument(
        "--gap-fill", action="store_true",
        help="bridge contig gaps with unplaced reads after assembly",
    )
    parser.add_argument(
        "--polish", action="store_true",
        help="pileup-polish contigs against their reads after assembly",
    )
    parser.add_argument(
        "-o", "--output", default=None,
        help="write contigs to this FASTA file (default: no file output)",
    )
    parser.add_argument(
        "--gfa", default=None, metavar="FILE",
        help="write the string graph + contig paths as GFA 1",
    )
    parser.add_argument(
        "--paf", default=None, metavar="FILE",
        help="write the overlap graph as PAF records",
    )
    parser.add_argument(
        "--breakdown", action="store_true",
        help="print the per-stage modeled time breakdown",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print read-set statistics (N50, GC, depth estimate) first",
    )
    parser.add_argument(
        "--quality", action="store_true",
        help="evaluate contigs against the preset's reference genome",
    )
    return parser


def _load_reads(args):
    """Returns (reads, bench_dataset_or_None)."""
    if args.fasta:
        try:
            _, reads = read_fasta(args.fasta)
        except OSError as exc:
            raise CliError(f"cannot read FASTA {args.fasta!r}: {exc}") from exc
        if not reads:
            raise CliError(f"no sequences found in {args.fasta!r}")
        return reads, None
    ds = build_bench_dataset(args.preset, scale=args.scale)
    return list(ds.readset.reads), ds


def _checkpoint_dir(args) -> str | None:
    if args.resume_from is not None:
        if not os.path.isdir(args.resume_from):
            raise CliError(
                f"--resume-from directory {args.resume_from!r} does not exist"
            )
        return args.resume_from
    return args.checkpoint_dir


def _print_timing(result, args, out, peak: bool) -> None:
    line = (
        f"modeled time on {args.machine} with P={args.nprocs}: "
        f"{result.modeled_total:.4f}s"
    )
    if peak:
        line += f"  (peak memory {result.peak_memory_bytes / 1e6:.2f} MB/rank)"
    print(line, file=out)
    if args.breakdown:
        for stage, sec in result.main_stage_breakdown().items():
            print(f"  {stage:<16}{sec:>12.4f}s", file=out)


def main(argv: list[str] | None = None, out=None) -> int:
    """Parse arguments, run the pipeline (plus any requested extensions), report, and write outputs; returns a process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        reads, ds = _load_reads(args)
        cfg = build_pipeline_config(args, ds)
        if args.gfa or args.paf:
            cfg.keep_graphs = True
        cfg.validate()
        if args.stats:
            from ..seq import estimate_depth, kmer_spectrum, read_stats

            glen = len(ds.genome) if ds is not None else None
            st = read_stats(reads, genome_length=glen)
            print(st.render(), file=out)
            spec = kmer_spectrum(reads, cfg.k)
            print(
                f"k-mer depth estimate (k={cfg.k}): "
                f"{estimate_depth(spec):.0f}x",
                file=out,
            )
        injector = None
        if args.fault_plan:
            from ..faults import FaultInjector, FaultPlan

            injector = FaultInjector(FaultPlan.load(args.fault_plan))
        tracer = None
        if args.trace_out:
            from ..telemetry import Tracer

            tracer = Tracer()
        observers = [TraceObserver(out)] if args.trace else []
        observers += [o for o in (tracer, injector) if o is not None]
        result = Pipeline.default().run(
            ds.readset if ds is not None else reads,
            cfg,
            until=args.until,
            checkpoint_dir=_checkpoint_dir(args),
            observers=observers,
        )

        if tracer is not None:
            from ..telemetry import summary_table, write_chrome_trace, write_jsonl

            try:
                if args.trace_out.endswith(".jsonl"):
                    n = write_jsonl(tracer, args.trace_out)
                    what = "span record(s)"
                else:
                    n = write_chrome_trace(
                        tracer, args.trace_out, include_wall=True
                    )
                    what = "trace event(s)"
            except OSError as exc:
                raise CliError(
                    f"cannot write trace {args.trace_out!r}: {exc}"
                ) from exc
            print(f"wrote {n} {what} to {args.trace_out}", file=out)
            print(summary_table(tracer), file=out)

        resumed = sum(1 for _, why in result.stages_skipped if why == "checkpoint")
        if resumed:
            print(
                f"resumed {resumed} stage(s) from checkpoint; modeled time "
                f"covers executed stages only",
                file=out,
            )
        if injector is not None:
            print(
                f"fault plan: injected {len(injector.events)} fault(s), "
                f"recovered {len(result.recoveries)} stage failure(s)",
                file=out,
            )

        if result.contigs is None:
            # partial run: report what was produced and stop
            produced = sorted(k for k in result.artifacts if k != "reads")
            print(
                f"partial run stopped after {args.until}: "
                f"artifacts {', '.join(produced)}",
                file=out,
            )
            _print_timing(result, args, out, peak=False)
            return 0

        contigs = list(result.contigs.contigs)
        if args.gfa:
            from ..export import write_gfa

            n = write_gfa(args.gfa, result.artifacts["S"], reads, contigs)
            print(f"wrote {n} GFA lines to {args.gfa}", file=out)
        if args.paf:
            from ..export import write_paf

            n = write_paf(args.paf, result.artifacts["R"], reads)
            print(f"wrote {n} PAF records to {args.paf}", file=out)
        if args.polish:
            polished = polish_contigs(contigs, reads, PolishConfig())
            print(
                f"polish: corrected {polished.total_changed} bases "
                f"across {len(contigs)} contigs",
                file=out,
            )
            contigs = polished.contigs
        seqs = [c.codes for c in contigs]
        if args.scaffold:
            scaffolded = scaffold_contigs(seqs, ScaffoldConfig())
            print(
                f"scaffold: {len(seqs)} contigs -> {scaffolded.count} "
                f"in {scaffolded.n_rounds} round(s)",
                file=out,
            )
            seqs = scaffolded.contigs
        if args.gap_fill:
            filled = gap_fill(seqs, reads, ScaffoldConfig(min_overlap=25))
            print(
                f"gap-fill: {len(seqs)} contigs -> {filled.count}",
                file=out,
            )
            seqs = filled.contigs

        lengths = sorted((int(s.size) for s in seqs), reverse=True)
        print(
            f"assembled {len(seqs)} contigs from {len(reads)} reads "
            f"({sum(lengths)} bases, longest {lengths[0] if lengths else 0})",
            file=out,
        )
        _print_timing(result, args, out, peak=True)
        if args.quality:
            if ds is None:
                raise CliError("--quality requires --preset (needs a reference)")
            rep = evaluate_assembly(seqs, ds.genome, k=ds.k)
            print(f"quality: {rep.row()}", file=out)
        if args.output:
            write_fasta(
                args.output,
                ((f"contig_{i}" , s) for i, s in enumerate(seqs)),
            )
            print(f"wrote {len(seqs)} contigs to {args.output}", file=out)
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
