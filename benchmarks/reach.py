#!/usr/bin/env python3
"""Reach audit: which ``src`` functions does no non-test command call?

Runs, in this one process and under ``cProfile``, the commands CI runs
besides the test suite:

* every ``examples/*.py``;
* ``benchmarks/paper_scale_gate.py``;
* one round of timed ops plus the traced pass of each ``benchmarks/e2e``
  workload (what ``run.py --trace 1`` runs in its child);
* the paper-shape and ablation benches (``bench_fig*``, ``bench_table*``,
  ``bench_cloud_scaling``, ``bench_ablation_*``) through ``pytest.main``;
* ``repro-assemble`` with every output flag, then a resume from its
  checkpoints, and ``repro-quality`` on its contigs.

It then prints every top-level function and method under ``src/repro``
that none of them called, with its line count, grouped by package.  The
parked packages (the job service, fault injection and their two console
scripts, which CI's service and chaos test steps drive) and the names in
:data:`KEPT` -- each with its reason -- are reported apart.  The exit
code is 1 if any other function is unreached, or if a :data:`KEPT` entry
names a function that no longer exists; so a PR that deletes code runs
this script to show what is left, and one that adds code the runs do
not reach must say why here.

CI runs it as a step of its own: it re-runs every CI command under a
profiler (about 90 s on a 2-core host).  Standard library only, plus the
pytest that the benches already need::

    python benchmarks/reach.py

Limits: a profiler sees only this process's main thread, so code that
runs only in a worker thread or in a child process (``repro-jobs``
workers, the ``benchmarks/e2e`` child) is not seen; the e2e drive runs
here in process instead.  pytest-benchmark's timing loop swaps the
process profiler out and cannot put a cProfile one back, so the benches
run with ``--benchmark-disable`` (the fixture then calls its target
once), and each bench test gets a fresh profiler through a
``pytest_runtest_protocol`` hook: a test that switches profiling off
loses only its own calls.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import cProfile
import importlib.util
import io
import os
import runpy
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
E2E = ROOT / "benchmarks" / "e2e"
sys.path.insert(0, str(SRC))

#: packages and modules CI drives only through its service and chaos test
#: steps (and subprocess workers), reported apart
PARKED = ("service", "faults", "cli/jobs.py", "cli/scaling.py")

_ORACLE = "scalar oracle: the reference the fast path is tested against"
_FIXTURE = "test fixture: test files build their inputs with it"
_ACCESSOR = "accessor of a result that tests read (their subject is the result)"
_FROZEN = "named by the frozen benchmarks/e2e contract (ROADMAP 4(d))"
_RECOVERY = "recovery path: runs only when a stage fails or a checkpoint is lost"
_PARKED_CALLER = "called only from a parked package"
_JOBS = "called only by repro-jobs top, in its own process"

#: ``module:qualname`` -> why it stays although no run reaches it
#: (``module:*`` keeps a whole module, ``module:Class.*`` a whole class)
KEPT = {
    # scalar oracles and the references tests compare against
    "align/xdrop.py:*": _ORACLE,
    "core/assembly.py:*": _ORACLE,
    "align/classify.py:classify_overlap": _ORACLE,
    "align/classify.py:_edge_fields": _ORACLE,
    "seq/readstore.py:PackedReads.codes": _ORACLE + " (its read access)",
    "mpi/comm.py:SimComm.alltoall": "the reference SimComm.route is tested against",
    "mpi/comm.py:RoutePlan.counts": "the P x P count matrix the route tests compare a plan's cells against",
    "mpi/executor.py:RankContext.span": (
        "the kernel-section API of a rank step, which the telemetry and executor "
        "tests drive; no pipeline step opens one since LocalAssembly became a "
        "segment step (it records its walk spans with record_span)"
    ),
    "sparse/semiring.py:_seed_add": "the add the seed semiring's slot_reduce is tested against",
    "sparse/coo.py:segment_order": "the stable segment sort _seed_add uses",
    "strgraph/edgecodec.py:*": "called by the serial OLC oracle in tests/oracle",
    # test fixtures
    "sparse/semiring.py:arithmetic_semiring": _FIXTURE,
    "sparse/semiring.py:count_semiring": _FIXTURE,
    "sparse/coo.py:LocalCoo.from_dense": _FIXTURE,
    "sparse/coo.py:LocalCoo.to_dense": _FIXTURE,
    "sparse/distmat.py:DistSparseMatrix.empty": _FIXTURE,
    "sparse/distvec.py:DistVector.from_global": _FIXTURE,
    "seq/readstore.py:PackedReads.empty": _FIXTURE,
    "seq/readstore.py:PackedReads.from_strings": _FIXTURE,
    "seq/readstore.py:PackedReads.string": _FIXTURE,
    "seq/readstore.py:PackedReads.index_of": _FIXTURE,
    "seq/readstore.py:DistReadStore.codes_global": _FIXTURE,
    "seq/dna.py:revcomp_str": _FIXTURE,
    "kmer/codec.py:kmer_to_string": _FIXTURE,
    "kmer/codec.py:string_to_kmer": _FIXTURE,
    "mpi/costmodel.py:zero_cost": _FIXTURE,
    "mpi/comm.py:block_range": _FIXTURE,
    "mpi/grid.py:ProcGrid.row_block": _FIXTURE,
    "telemetry/export.py:validate_trace": _FIXTURE + " (the trace schema check)",
    # result accessors
    "scaffold/merge.py:ScaffoldResult.*": _ACCESSOR,
    "align/batch.py:BatchXdropResult.__len__": _ACCESSOR,
    "align/batch.py:BatchXdropResult.item": _ACCESSOR,
    "core/seqexchange.py:SequenceExchangeResult.used_contiguous_datatype": _ACCESSOR,
    "mpi/memory.py:BudgetViolation.excess_bytes": _ACCESSOR,
    "mpi/memory.py:MemoryBudget.violated_stages": _ACCESSOR,
    "mpi/memory.py:MemoryMeter.by_stage": _ACCESSOR,
    "mpi/memory.py:MemoryMeter.peak": _ACCESSOR,
    "mpi/stats.py:TimingReport.total_seconds": _ACCESSOR,
    "telemetry/spans.py:Tracer.spans": _ACCESSOR,
    # the frozen drive's names
    "sparse/spgemm.py:spgemm_symbolic": _FROZEN,
    "sparse/spgemm.py:spgemm_local": _FROZEN,
    "kernels.py:*": _FROZEN,
    # recovery paths
    "pipeline/engine.py:RunContext.note": _RECOVERY,
    "pipeline/engine.py:CollectingObserver.on_stage_note": _RECOVERY,
    "pipeline/engine.py:TraceObserver.on_stage_note": _RECOVERY,
    "telemetry/spans.py:Tracer.fail_stage": _RECOVERY,
    "telemetry/spans.py:Tracer.on_stage_fail": _RECOVERY,
    "seq/fasta.py:_fasta_error": "error path: builds the error bad FASTA input raises",
    # callers that cProfile cannot see or that are parked
    "errors.py:RankFailure.__init__": _PARKED_CALLER + " (the fault injector)",
    "telemetry/spans.py:Tracer.stall": _PARKED_CALLER + " (a fault plan's stall)",
    "mpi/memory.py:MemoryBudget.headroom": _PARKED_CALLER + " (the service cache)",
    "telemetry/metrics.py:MetricsRegistry.merge": _JOBS,
    "telemetry/metrics.py:MetricsRegistry.render": _JOBS,
}

#: what a rule keeps without a name in KEPT
_RULE_REPR = "debugging aid (__repr__)"
_RULE_HOOK = "empty body: a no-op hook default or a protocol signature"
_RULE_RAISE = "error path or abstract method: its body only raises"


# ---------------------------------------------------------------------------
# the functions under src
# ---------------------------------------------------------------------------


def _body_rule(node: ast.AST) -> str | None:
    """The reason a rule keeps ``node`` unreached, or None."""
    if node.name == "__repr__":
        return _RULE_REPR
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ) and isinstance(body[0].value.value, str):
        body = body[1:]
    if not body or all(
        isinstance(s, ast.Pass)
        or (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))
        for s in body
    ):
        return _RULE_HOOK
    if len(body) == 1 and isinstance(body[0], ast.Raise):
        return _RULE_RAISE
    return None


def src_functions():
    """Yield ``(relpath, qualname, first_line, n_lines, rule)`` for every
    top-level function and every method of a top-level class (nested
    classes included) under ``src/repro``.  ``first_line`` is the line a
    code object reports: the first decorator's, if any."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)

    def walk(body, prefix, rel):
        for node in body:
            if isinstance(node, funcs):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield (
                    rel,
                    prefix + node.name,
                    first,
                    node.end_lineno - first + 1,
                    _body_rule(node),
                )
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.", rel)

    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        yield from walk(ast.parse(path.read_text()).body, "", rel)


def kept_key(rel: str, qualname: str) -> str | None:
    """The :data:`KEPT` key naming this function, or None."""
    for key in (f"{rel}:{qualname}", f"{rel}:{qualname.split('.')[0]}.*",
                f"{rel}:*"):
        if key in KEPT:
            return key
    return None


def parked_as(rel: str) -> str | None:
    """The :data:`PARKED` entry holding this module, or None."""
    for p in PARKED:
        if rel == p or rel.startswith(p + "/"):
            return p
    return None


# ---------------------------------------------------------------------------
# the commands, each under a profiler
# ---------------------------------------------------------------------------


class Reach:
    """The ``(filename, first line)`` of every code object a profile saw."""

    def __init__(self) -> None:
        self.seen: set[tuple[str, int]] = set()

    def add(self, prof: cProfile.Profile) -> None:
        prof.create_stats()
        for filename, line, _name in prof.stats:
            self.seen.add((os.path.realpath(filename), line))

    @contextlib.contextmanager
    def profiled(self, label: str):
        print(f"== {label}", file=sys.stderr, flush=True)
        prof = cProfile.Profile()
        prof.enable()
        try:
            yield
        finally:
            prof.disable()
            self.add(prof)


@contextlib.contextmanager
def _quiet():
    """Keep what a command prints, and show it only if the command fails."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            yield
    except BaseException:
        sys.stderr.write(buf.getvalue())
        raise


def _exit_ok(code) -> None:
    if code not in (0, None):
        raise SystemExit(f"reach: a command exited with {code}")


def run_script(path: Path) -> None:
    old_argv = sys.argv
    sys.argv = [str(path)]
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as stop:
        _exit_ok(stop.code)
    finally:
        sys.argv = old_argv


def run_examples(reach: Reach) -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        with reach.profiled(f"examples/{path.name}"), _quiet():
            run_script(path)


def run_gate(reach: Reach) -> None:
    with reach.profiled("benchmarks/paper_scale_gate.py"), _quiet():
        run_script(ROOT / "benchmarks" / "paper_scale_gate.py")


def _load_e2e(name: str):
    """Import a ``benchmarks/e2e`` module by path (``trace`` would
    otherwise resolve to the standard library's module)."""
    spec = importlib.util.spec_from_file_location(f"e2e_{name}", E2E / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_workloads(reach: Reach, work: Path) -> None:
    """What ``run.py --trace 1``'s child runs: its provenance stamp, one
    round of timed ops and the traced pass, per workload."""
    from repro import Pipeline, PipelineConfig
    from repro.bench import machine_stamp
    from repro.kernels import native_available, resolve_kernel_tier

    workloads = _load_e2e("workloads")
    trace = _load_e2e("trace")
    with reach.profiled("benchmarks/e2e provenance"):
        machine_stamp()
        resolve_kernel_tier(PipelineConfig().kernel_tier)
        native_available()
    for name, workload in workloads.WORKLOADS.items():
        with reach.profiled(f"benchmarks/e2e workload {name}"), _quiet():
            prepared = workload.prepare(3)
            pipeline = Pipeline.default()

            def op(i: int):
                return pipeline.run(
                    prepared.reads,
                    workload.op_config(i),
                    from_artifacts=prepared.from_artifacts,
                )

            def untraced_op() -> float:
                t0 = time.perf_counter()
                op(0)
                return time.perf_counter() - t0

            for i in range(workload.ops_per_round):
                result = op(i)
            truth = prepared.check([c.codes for c in result.contigs.contigs])
            if not truth.ok:
                raise SystemExit(f"reach: workload {name} failed its truth check")
            scratch = work / f"trace_{name}"
            scratch.mkdir()
            trace.traced_pass(workload, prepared, str(scratch), untraced_op)


def run_benches(reach: Reach) -> None:
    import pytest

    class PerTestProfiler:
        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_protocol(self, item, nextitem):
            with reach.profiled(f"bench {item.nodeid}"):
                yield

    bench = ROOT / "benchmarks"
    files = sorted(
        str(p)
        for pattern in (
            "bench_fig*.py",
            "bench_table*.py",
            "bench_cloud_scaling.py",
            "bench_ablation_*.py",
        )
        for p in bench.glob(pattern)
    )
    args = ["-q", "-p", "no:cacheprovider", "--rootdir", str(bench)]
    if importlib.util.find_spec("pytest_benchmark") is not None:
        args.append("--benchmark-disable")  # see the module docstring
    with _quiet():
        code = pytest.main([*args, *files], plugins=[PerTestProfiler()])
        _exit_ok(int(code))


def run_cli(reach: Reach, work: Path) -> None:
    from repro.bench import build_bench_dataset
    from repro.cli import assemble, quality
    from repro.seq.fasta import write_fasta

    preset = ["--preset", "c_elegans", "--scale", "100000", "-P", "4"]
    checkpoints = str(work / "checkpoints")
    contigs = str(work / "contigs.fa")
    with reach.profiled("repro-assemble, every output flag"), _quiet():
        _exit_ok(assemble.main([
            *preset, "--memory-budget-mb", "400", "--trace",
            "--trace-out", str(work / "trace.json"),
            "--checkpoint-dir", checkpoints, "--scaffold", "--gap-fill",
            "--polish", "-o", contigs, "--gfa", str(work / "graph.gfa"),
            "--paf", str(work / "overlaps.paf"), "--breakdown", "--stats",
            "--quality",
        ]))
    with reach.profiled("repro-assemble --resume-from --until"), _quiet():
        _exit_ok(assemble.main([
            *preset, "--resume-from", checkpoints, "--until", "TrReduction",
            "--trace", "--trace-out", str(work / "trace.jsonl"),
        ]))
    reference = str(work / "reference.fa")
    write_fasta(reference, [("ref", build_bench_dataset("c_elegans", scale=100000).genome)])
    with reach.profiled("repro-quality"), _quiet():
        _exit_ok(quality.main([contigs, reference, "--per-contig"]))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def report(reach: Reach, out=sys.stdout) -> int:
    """Print the audit; 1 if anything outside PARKED and KEPT is unreached
    or a KEPT entry names no function."""
    unreached = defaultdict(list)  # package -> [(lines, name)]
    parked = defaultdict(int)  # PARKED entry -> unreached lines
    kept = []  # (lines, name, reason)
    named = set()  # KEPT keys that match a function
    total = reached_lines = 0
    for rel, qualname, first, nlines, rule in src_functions():
        total += nlines
        key = kept_key(rel, qualname)
        named.add(key)
        if (str((PACKAGE / rel).resolve()), first) in reach.seen:
            reached_lines += nlines
        elif parked_as(rel) is not None:
            parked[parked_as(rel)] += nlines
        elif key is not None or rule is not None:
            kept.append((nlines, f"{rel}:{qualname}", KEPT.get(key, rule)))
        else:
            package = rel.split("/")[0] if "/" in rel else "(top level)"
            unreached[package].append((nlines, f"{rel}:{qualname}"))
    stale = sorted(set(KEPT) - named)

    def lines(rows):
        return sum(row[0] for row in rows)

    n_unreached = sum(lines(group) for group in unreached.values())
    print(f"src functions and methods: {total} lines, {reached_lines} reached",
          file=out)
    print(f"\nparked, unreached: {sum(parked.values())} lines", file=out)
    for entry, n in sorted(parked.items()):
        print(f"  {n:5d}  {entry}", file=out)
    print(f"\nkept, unreached: {lines(kept)} lines", file=out)
    for n, name, reason in sorted(kept, key=lambda row: row[1]):
        print(f"  {n:5d}  {name}  -- {reason}", file=out)
    print(f"\nunreached: {n_unreached} lines", file=out)
    for package, group in sorted(unreached.items()):
        print(f"  {package}: {lines(group)} lines", file=out)
        for n, name in sorted(group, key=lambda row: row[1]):
            print(f"    {n:5d}  {name}", file=out)
    for key in stale:
        print(f"\nstale KEPT entry (names no function): {key}", file=out)
    return 1 if (n_unreached or stale) else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.parse_args(argv)
    reach = Reach()
    old_cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as tmp:
        work = Path(tmp)
        old_tempdir, tempfile.tempdir = tempfile.tempdir, tmp
        os.chdir(tmp)  # trace_and_profile.py writes into the cwd
        try:
            run_examples(reach)
            run_gate(reach)
            run_workloads(reach, work)
            run_cli(reach, work)
            run_benches(reach)
        finally:
            os.chdir(old_cwd)
            tempfile.tempdir = old_tempdir
    return report(reach)


if __name__ == "__main__":
    sys.exit(main())
