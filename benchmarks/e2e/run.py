#!/usr/bin/env python3
"""End-to-end assembly benchmark: four workloads, a per-layer traced drive.

All workloads, round-robin (the reviewer's command)::

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 1 \
        --out benchmarks/e2e/out/result.json

One workload for a fixed measuring time (the benchmark contract of
``BENCHMARK.json``; the last line of stdout is one JSON object)::

    python3 benchmarks/e2e/run.py --workload hierr_dp_p4 --seed 3 \
        --seconds 15 --trace 0

Every workload runs in its own child process (so ``ru_maxrss`` is per
workload); the parent drives timed ops one child at a time and never
computes while a child does.  See README.md for the protocol, the metric
tables and what is not covered.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
# the benchmark must run from a bare checkout, without PYTHONPATH
sys.path.insert(0, str(ROOT / "src"))

WORKLOAD_NAMES = (
    "lowerr_diag_p16",
    "hierr_dp_p4",
    "lowerr_budget_p16",
    "contig_sweep_p16",
)

#: name -> (unit, better).  The first four are measured; the rest are
#: exact functions of (code, seed) and compare with ``==`` at a fixed seed.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "reads_per_s": ("reads/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "modeled_s": ("s", "lower"),
    "modeled_peak_mb": ("MB", "lower"),
    "genome_fraction": ("ratio", "higher"),
    "ng50_bp": ("bp", "higher"),
    "misassemblies": ("count", "lower"),
}
EXACT = ("modeled_s", "modeled_peak_mb", "genome_fraction", "ng50_bp", "misassemblies")
#: the end-to-end metrics BENCHMARK.json registers: those that are never 0,
#: exist on every workload and are steady across seeds (README, "contract")
REGISTERED_END_TO_END = (
    "setup_s", "wall_s", "reads_per_s", "peak_rss_mb", "genome_fraction",
)

_S, _N, _R = ("s", "lower"), ("count", "lower"), ("ratio", "higher")
PER_LAYER = {
    "seq.from_global_s": _S,
    "seq.reads": ("count", "higher"),
    "seq.bases": ("count", "higher"),
    "kmer.count_kmers_s": _S,
    "kmer.build_kmer_matrix_s": _S,
    "kmer.reliable_kmers": _N,
    "kmer.A_nnz": _N,
    "overlap.detect_overlaps_s": _S,
    "overlap.build_overlap_graph_s": _S,
    "overlap.pairs_aligned": _N,
    "overlap.dovetail_ratio": _R,
    "overlap.contained_reads": _N,
    "overlap.R_nnz": _N,
    "sparse.local_products": _N,
    "sparse.local_nnz_out": _N,
    "sparse.local_compression": _R,
    "sparse.local_spgemm_s": _S,
    "sparse.local_mproducts_per_s": ("Mproducts/s", "higher"),
    "sparse.transpose_s": _S,
    "sparse.C_nnz": _N,
    "sparse.spgemm_phases": _N,
    "align.probe_pairs": ("count", "higher"),
    "align.probe_s": _S,
    "align.pairs_per_s": ("pairs/s", "higher"),
    "strgraph.transitive_reduction_s": _S,
    "strgraph.tr_rounds": _N,
    "strgraph.tr_removed": ("count", "higher"),
    "strgraph.S_nnz": _N,
    "core.contig_generation_s": _S,
    "core.branch_removal_s": _S,
    "core.connected_components_s": _S,
    "core.contig_sizes_s": _S,
    "core.partition_contigs_s": _S,
    "core.induced_subgraph_s": _S,
    "core.exchange_sequences_s": _S,
    "core.local_assembly_s": _S,
    "core.cc_rounds": _N,
    "core.branch_vertices": _N,
    "core.partition_imbalance": ("ratio", "lower"),
    "core.contigs": _N,
    "mpi.supersteps": _N,
    "mpi.superstep_wall_s": _S,
    "mpi.comm_ops": _N,
    "mpi.comm_bytes": ("bytes", "lower"),
    "mpi.modeled_comm_s": _S,
    "mpi.modeled_compute_s": _S,
    "mpi.modeled_s": _S,
    "mpi.modeled_peak_mb": ("MB", "lower"),
    "mpi.map_ranks_noop_us": ("us", "lower"),
    "pipeline.engine_overhead_s": _S,
    "pipeline.checkpoint_bytes": ("bytes", "lower"),
    "pipeline.checkpoint_cold_s": _S,
    "pipeline.checkpoint_warm_s": _S,
    "quality.evaluate_s": _S,
    "quality.ng50_bp": ("bp", "higher"),
    "quality.misassemblies": _N,
    "trace.coverage": _R,
    "machine.calib_ms": ("ms", "lower"),
    "machine.calib_iqr_frac": ("ratio", "lower"),
}

#: all-workloads mode: rounds of (calibration kernel, then each workload's
#: ``ops_per_round`` ops), so every workload's samples span the whole run
ROUNDS = 9
#: fresh child processes per workload and run, so setup_s is a median
SETUPS_PER_RUN = 3
SCRUBBED_ENV = ("REPRO_EXECUTOR", "REPRO_KERNEL_TIER", "REPRO_PROCESS_WORKERS")
#: a seed's input is the first of this many draws that passes the truth gate
#: (draw d is generated from seed + d * DRAW_STRIDE; see child_main)
INPUT_DRAWS = 3
DRAW_STRIDE = 1_000_003


# ---------------------------------------------------------------------------
# child process: one workload, commands on stdin, one JSON reply per line
# ---------------------------------------------------------------------------


def child_main(name: str, seed: int) -> None:
    # replies own the real stdout; anything the program prints goes to stderr
    replies = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def send(obj: dict) -> None:
        replies.write(json.dumps(obj) + "\n")
        replies.flush()

    from repro import Pipeline, PipelineConfig
    from repro.bench import machine_stamp
    from repro.kernels import native_available, resolve_kernel_tier

    from trace import traced_pass
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    pipeline = Pipeline.default()

    def run_op(i: int):
        config = workload.op_config(i)
        t0 = time.perf_counter()
        result = pipeline.run(
            prepared.reads, config, from_artifacts=prepared.from_artifacts
        )
        return time.perf_counter() - t0, result

    # The caller picks the seed, and about one random genome in 400 is hard
    # on a correct assembler (a planted repeat that chains two loci into one
    # contig, or costs more than the gate allows).  So that such a draw does
    # not read as a wrong program, the input of a seed is the first of its
    # INPUT_DRAWS draws whose warm-up assembly passes the truth gate; a
    # program that assembles wrongly fails all of them.
    for draw in range(INPUT_DRAWS):
        prepared = workload.prepare(seed + draw * DRAW_STRIDE)
        warmup_s, warm = run_op(0)
        truth = prepared.check([c.codes for c in warm.contigs.contigs])
        if truth.ok:
            break
    defaults = PipelineConfig()
    send(
        {
            "ops_per_round": workload.ops_per_round,
            "warmup_s": warmup_s,
            "setup_stage_s": prepared.setup_stage_s,
            "provenance": {
                **machine_stamp(),
                "numpy": np.__version__,
                "nproc": os.cpu_count(),
                "executor": defaults.executor,
                "kernel_tier": resolve_kernel_tier(defaults.kernel_tier),
                "native_available": native_available(),
            },
        }
    )
    digest = warm.contig_digest()
    facts = {
        "input_draw": draw,
        "reads": len(prepared.reads),
        "contig_digest": digest,
        "truth_ok": truth.ok,
        "modeled_s": warm.modeled_total,
        "modeled_peak_mb": warm.peak_memory_bytes / 1e6,
        "genome_fraction": truth.genome_fraction,
        "ng50_bp": truth.ng50_bp,
        "misassemblies": truth.misassemblies,
    }
    del warm

    ops = 0
    for line in sys.stdin:
        command = line.strip()
        if command == "op":
            ops += 1
            try:
                wall_s, result = run_op(ops)
                ok = truth.ok and result.contig_digest() == digest
            except Exception:  # a failed op is a result, not a crash
                traceback.print_exc()
                wall_s, ok = 0.0, False
            send({"wall_s": wall_s, "ok": ok})
        elif command == "finish":
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            send({**facts, "peak_rss_mb": rss_kb / 1024})
        elif command == "trace":
            OUT_DIR.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
                send(
                    traced_pass(
                        workload, prepared, scratch, lambda: run_op(0)[0]
                    )
                )
        else:
            raise SystemExit(f"unknown command {command!r}")


class Child:
    """Parent-side handle of one workload's process."""

    def __init__(self, name: str, seed: int) -> None:
        env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
        env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.name = name
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--child", name, "--seed", str(seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            self.ready = self._reply()
        except BaseException:
            self.close()
            raise
        #: child start -> ready for the first timed op
        self.setup_s = time.perf_counter() - t0

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"workload process {self.name} exited with {self.proc.wait()}"
            )
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        """End the process (EOF on stdin ends its loop) and reap it."""
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ---------------------------------------------------------------------------
# parent: measurement
# ---------------------------------------------------------------------------


def calibrate() -> float:
    """A fixed ~50 ms numpy + Python kernel.  It tells a reader whether a
    set ran on a slow phase of the machine; it never normalises anything."""
    t0 = time.perf_counter()
    keys = (np.arange(200_000, dtype=np.int64) * 2654435761) % 1_000_003
    for _ in range(8):
        np.argsort(keys, kind="stable")
    table = {}
    for i in range(80_000):
        table[i] = i * i
    return time.perf_counter() - t0


def run_batch(names, seed: int, *, more, trace: bool) -> dict:
    """Start one child per workload, then drive rounds of timed ops, one
    child active at a time, while ``more(rounds_done, op_seconds)`` holds.
    Every child is stopped before return."""
    children: dict[str, Child] = {}
    out = {n: {"samples": [], "failed_ops": 0, "calib_s": []} for n in names}
    try:
        for name in names:
            children[name] = Child(name, seed)
        done_rounds, measured = 0, 0.0
        while more(done_rounds, measured):
            calib_s = calibrate()
            for name, child in children.items():
                out[name]["calib_s"].append(calib_s)
                for _ in range(child.ready["ops_per_round"]):
                    reply = child.ask("op")
                    measured += reply["wall_s"]
                    if reply["ok"]:
                        out[name]["samples"].append(reply["wall_s"])
                    else:
                        out[name]["failed_ops"] += 1
            done_rounds += 1
        for name, child in children.items():
            out[name].update(
                setup_s=child.setup_s,
                ready=child.ready,
                facts=child.ask("finish"),
                trace=child.ask("trace") if trace else None,
                op_seconds=measured,
            )
    finally:
        for child in children.values():
            child.close()
    return out


def quartile_spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(name: str, batches: list[dict]) -> dict:
    """Fold one workload's batches (one per set-up) into its result."""
    samples = [s for b in batches for s in b["samples"]]
    if not samples:
        raise SystemExit(f"{name}: no op succeeded, nothing to report")
    failed_ops = sum(b["failed_ops"] for b in batches)
    facts = batches[0]["facts"]
    exact_keys = [k for k in facts if k != "peak_rss_mb"]
    consistent = all(
        b["facts"][k] == facts[k] for b in batches for k in exact_keys
    )
    checks = {
        "ops_succeeded": failed_ops == 0,
        "truth": facts["truth_ok"],
        "setups_agree": consistent,
    }
    wall_s = statistics.median(samples)
    values = {
        "setup_s": statistics.median(b["setup_s"] for b in batches),
        "wall_s": wall_s,
        "reads_per_s": facts["reads"] / wall_s,
        "peak_rss_mb": statistics.median(
            b["facts"]["peak_rss_mb"] for b in batches
        ),
        **{k: facts[k] for k in EXACT},
    }
    if values["modeled_peak_mb"] == 0:
        # contig_sweep_p16: no SpGEMM in the op, so 0 by construction
        del values["modeled_peak_mb"]
    wall = {"n": len(samples), "min_s": min(samples), "max_s": max(samples)}
    if len(samples) > 20:
        # the highest percentile with at least ten samples beyond it
        pct = int(100 * (1 - 10 / len(samples)))
        wall[f"p{pct}_s"] = sorted(samples)[len(samples) * pct // 100]
    result = {
        "end_to_end": {
            k: {
                "value": v,
                "unit": END_TO_END[k][0],
                "better": END_TO_END[k][1],
                "exact": k in EXACT,
            }
            for k, v in values.items()
        },
        "ops": len(samples) + failed_ops,
        "failed_ops": failed_ops,
        "wall": wall,
        "samples_s": samples,
        "setup_samples_s": [b["setup_s"] for b in batches],
        "warmup_s": [b["ready"]["warmup_s"] for b in batches],
        "setup_stage_s": batches[0]["ready"]["setup_stage_s"],
        "reads": facts["reads"],
        "input_draw": facts["input_draw"],
        "contig_digest": facts["contig_digest"],
    }
    traced = next((b["trace"] for b in batches if b["trace"]), None)
    if traced is not None:
        calib_s = [c for b in batches for c in b["calib_s"]]
        layer = dict(traced["metrics"])
        layer["pipeline.engine_overhead_s"] = (
            traced["untraced_op_s"] - traced["op_span_s"]
        )
        layer["trace.coverage"] = traced["op_span_s"] / traced["untraced_op_s"]
        layer["machine.calib_ms"] = statistics.median(calib_s) * 1e3
        layer["machine.calib_iqr_frac"] = quartile_spread(calib_s)
        result["per_layer"] = {
            k: {"value": layer[k], "unit": PER_LAYER[k][0]}
            for k in PER_LAYER
            if k in layer
        }
        result["spans"] = traced["spans"]
        result["trace_digest"] = traced["digest"]
        checks["trace_digest"] = traced["digest"] == facts["contig_digest"]
    result["checks"] = checks
    result["correct"] = all(checks.values())
    return result


def provenance(seed: int, child_stamp: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # a bare checkout is not a git repository
    return {
        "git_commit": commit,
        "seed": seed,
        "argv": sys.argv[1:],
        "python_implementation": platform.python_implementation(),
        **child_stamp,
    }


# ---------------------------------------------------------------------------
# parent: reporting
# ---------------------------------------------------------------------------


def print_report(result: dict) -> None:
    for name, w in result["workloads"].items():
        print(f"\n== {name}: {w['ops']} ops, {w['failed_ops']} failed, "
              f"input draw {w['input_draw']}, digest {w['contig_digest'][:16]}, "
              f"{'correct' if w['correct'] else 'INCORRECT ' + str(w['checks'])}")
        for group in ("end_to_end", "per_layer"):
            for metric, entry in w.get(group, {}).items():
                extra = ""
                if metric == "wall_s":
                    extra = "   (" + ", ".join(
                        f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}"
                        for k, v in w["wall"].items()
                    ) + ")"
                print(f"{metric:34s} {entry['value']:<14.6g} {entry['unit']}{extra}")


def contract_line(w: dict, trace: bool) -> str:
    """The benchmark contract's result object for one workload."""
    if trace:
        layer = w["per_layer"]
        # a metric this workload's drive does not produce reads 0
        metrics = {
            k: layer.get(k, {"value": 0.0, "unit": PER_LAYER[k][0]})
            for k in PER_LAYER
        }
    else:
        metrics = {
            k: {"value": w["end_to_end"][k]["value"], "unit": END_TO_END[k][0]}
            for k in REGISTERED_END_TO_END
        }
    return json.dumps(
        {
            "correct": w["correct"],
            "attempted": w["ops"],
            "failed": w["failed_ops"],
            "metrics": metrics,
        }
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="contract mode: only this workload, for --seconds")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="measured op time per run (with --workload)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: print per-layer (1) or end-to-end (0) metrics")
    ap.add_argument("--out", type=Path, help="write the full result as JSON")
    ap.add_argument("--list", action="store_true",
                    help="dump workload and metric names as JSON and exit")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.list:
        print(json.dumps({
            "workloads": WORKLOAD_NAMES,
            "end_to_end": END_TO_END,
            "registered_end_to_end": REGISTERED_END_TO_END,
            "per_layer": PER_LAYER,
        }, indent=1))
        return 0
    if args.child:
        child_main(args.child, args.seed)
        return 0

    # Every run sets each workload up SETUPS_PER_RUN times, in fresh
    # processes spread over the run, so setup_s is a median; each set-up
    # then measures its share of the ops.  (A traced contract run reports
    # no setup_s and makes do with one.)
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    setups = 1 if args.workload and args.trace else SETUPS_PER_RUN
    batches, measured = [], 0.0
    for i in range(setups):
        if args.workload:
            # measure until this set-up's share of --seconds is used up, so
            # the overshoot past --seconds is one op, not one per set-up
            share = args.seconds * (i + 1) / setups - measured

            def more(_, op_seconds):
                return op_seconds < share
        else:

            def more(rounds, _):
                return rounds < ROUNDS // setups
        batches.append(
            run_batch(
                names, args.seed, more=more,
                trace=i == setups - 1 and (bool(args.trace) or not args.workload),
            )
        )
        measured += batches[-1][names[0]]["op_seconds"]
    result = {
        "provenance": provenance(
            args.seed, batches[0][names[0]]["ready"]["provenance"]
        ),
        "workloads": {
            name: summarize(name, [b[name] for b in batches]) for name in names
        },
    }
    print_report(result)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    correct = all(w["correct"] for w in result["workloads"].values())
    if args.workload:
        print(contract_line(result["workloads"][args.workload], bool(args.trace)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
