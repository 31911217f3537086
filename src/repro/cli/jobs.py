"""``repro-jobs``: drive the assembly-as-a-service job engine.

Subcommands mirror the :class:`~repro.service.JobService` facade::

    repro-jobs submit --root R --simulate 20000 --nprocs 4 -k 21
    repro-jobs worker --root R              # drain the queue here
    repro-jobs list   --root R [--state done] [--owner alice]
    repro-jobs status --root R JOB
    repro-jobs watch  --root R JOB          # tail the event log
    repro-jobs cancel --root R JOB
    repro-jobs gc     --root R --budget-mb 64
    repro-jobs top    --root R [--watch]    # states + fleet metrics

All state lives under ``--root`` (or ``$REPRO_JOBS_ROOT``): one JSON
record + event log per job, plus the shared artifact cache every job
reads and writes.  Multiple workers -- in this or other processes -- may
drain the same root concurrently.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from ..errors import ReproError
from ..faults import FaultPlan, RetryPolicy
from ..service import JobService, TERMINAL_STATES
from .common import CliError, positive_float, positive_int

__all__ = ["build_parser", "main"]


def _add_root(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--root",
        default=os.environ.get("REPRO_JOBS_ROOT"),
        metavar="DIR",
        help="service root directory (default: $REPRO_JOBS_ROOT)",
    )


def _add_cache_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-budget-mb",
        type=positive_float,
        default=None,
        help="shared artifact-cache budget in MB; LRU unpinned "
        "checkpoints are evicted to fit (pinned = in use by a running "
        "job, never evicted)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-jobs",
        description="Persistent multi-tenant assembly job queue with a "
        "shared, evicting artifact cache.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("submit", help="queue one assembly job")
    _add_root(p)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", help="Table 2 synthetic preset name")
    source.add_argument("--fasta", help="FASTA file of reads")
    source.add_argument(
        "--simulate", type=positive_int, metavar="LENGTH",
        help="deterministic tiled reads over a synthetic genome",
    )
    p.add_argument("--scale", type=positive_int, default=None,
                   help="down-scaling factor for --preset")
    p.add_argument("--sim-seed", type=int, default=0,
                   help="genome seed for --simulate")
    p.add_argument("--read-length", type=positive_int, default=400)
    p.add_argument("--stride", type=positive_int, default=150)
    p.add_argument("-P", "--nprocs", type=positive_int, default=4,
                   help="simulated ranks (perfect square)")
    p.add_argument("-k", type=positive_int, default=None, help="k-mer length")
    p.add_argument("--xdrop", type=positive_int, default=None)
    p.add_argument("--partition",
                   choices=("lpt", "greedy", "round_robin"), default=None)
    p.add_argument("--memory-budget-mb", type=positive_float, default=None)
    p.add_argument("--until", default=None, metavar="STAGE",
                   help="stop the job's pipeline after this stage")
    p.add_argument("--owner", default="anon", help="tenant submitting the job")
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs first; ties are FIFO")
    p.add_argument("--name", default="", help="human-readable job label")

    p = sub.add_parser("list", help="list jobs")
    _add_root(p)
    p.add_argument("--state", choices=("queued", "running") + TERMINAL_STATES,
                   default=None)
    p.add_argument("--owner", default=None)

    p = sub.add_parser("status", help="show one job record")
    _add_root(p)
    p.add_argument("job_id")

    p = sub.add_parser("watch", help="tail a job's event log until it ends")
    _add_root(p)
    p.add_argument("job_id")
    p.add_argument("--poll", type=positive_float, default=0.2,
                   help="seconds between event-log polls")
    p.add_argument("--timeout", type=positive_float, default=60.0,
                   help="give up after this many seconds")
    p.add_argument("--follow", action="store_true",
                   help="stream events incrementally (tail -f over the "
                   "JSONL log, torn-line tolerant) instead of re-reading "
                   "the whole log each poll")

    p = sub.add_parser("cancel", help="cancel a queued or running job")
    _add_root(p)
    p.add_argument("job_id")

    p = sub.add_parser("gc", help="evict unpinned cache entries to budget")
    _add_root(p)
    p.add_argument("--budget-mb", type=positive_float, default=None,
                   help="one-off budget for this collection")

    p = sub.add_parser(
        "top", help="live view: job states, fleet metrics, cache stats"
    )
    _add_root(p)
    p.add_argument("--watch", action="store_true",
                   help="refresh repeatedly instead of printing one frame")
    p.add_argument("--interval", type=positive_float, default=2.0,
                   help="seconds between refreshes with --watch")
    p.add_argument("--iterations", type=positive_int, default=None,
                   help="stop --watch after this many frames")

    p = sub.add_parser("worker", help="run a worker loop over the queue")
    _add_root(p)
    _add_cache_budget(p)
    p.add_argument("--max-jobs", type=positive_int, default=None,
                   help="stop after this many jobs (default: drain)")
    p.add_argument("--adopt", action="store_true",
                   help="re-queue orphaned running jobs before draining")
    p.add_argument("--worker-id", default=None)
    p.add_argument("--fault-plan", default=None, metavar="FILE",
                   help="JSON fault plan (repro.faults.FaultPlan schema) "
                   "injected into every job this worker runs")
    p.add_argument("--max-attempts", type=positive_int, default=None,
                   help="retry ceiling: a job failing this many attempts "
                   "lands in terminal 'failed' instead of requeueing")
    p.add_argument("--retry-base-delay", type=positive_float, default=None,
                   help="first retry backoff in seconds (doubles per "
                   "attempt, deterministic jitter)")

    return parser


def _service(args) -> JobService:
    if not args.root:
        raise CliError("--root (or $REPRO_JOBS_ROOT) is required")
    budget = getattr(args, "cache_budget_mb", None)
    retry = None
    overrides = {}
    if getattr(args, "max_attempts", None) is not None:
        overrides["max_attempts"] = args.max_attempts
    if getattr(args, "retry_base_delay", None) is not None:
        overrides["base_delay"] = args.retry_base_delay
    if overrides:
        retry = RetryPolicy(**overrides)
    return JobService(args.root, cache_budget_mb=budget, retry=retry)


def _source_from_args(args) -> dict:
    if args.preset:
        return {"kind": "preset", "name": args.preset, "scale": args.scale}
    if args.fasta:
        return {"kind": "fasta", "path": args.fasta}
    return {
        "kind": "simulate",
        "length": args.simulate,
        "seed": args.sim_seed,
        "read_length": args.read_length,
        "stride": args.stride,
    }


def _config_from_args(args) -> dict:
    config: dict = {"nprocs": args.nprocs}
    if args.k is not None:
        config["k"] = args.k
    if args.xdrop is not None:
        config["xdrop"] = args.xdrop
    if args.partition is not None:
        config["partition_method"] = args.partition
    if args.memory_budget_mb is not None:
        config["memory_budget_mb"] = args.memory_budget_mb
    return config


def _fmt_record(r) -> str:
    label = f"  [{r.spec.name}]" if r.spec.name else ""
    return (
        f"{r.job_id}  {r.state:<9}  prio={r.priority:<3} "
        f"owner={r.owner:<10} attempts={r.attempts}{label}"
    )


def _cmd_submit(svc: JobService, args, out) -> int:
    job_id = svc.submit(
        _source_from_args(args),
        _config_from_args(args),
        owner=args.owner,
        priority=args.priority,
        until=args.until,
        name=args.name,
    )
    print(job_id, file=out)
    return 0


def _cmd_list(svc: JobService, args, out) -> int:
    records = svc.list_jobs(state=args.state, owner=args.owner)
    for r in records:
        print(_fmt_record(r), file=out)
    if not records:
        print("(no jobs)", file=out)
    return 0


def _cmd_status(svc: JobService, args, out) -> int:
    r = svc.status(args.job_id)
    print(_fmt_record(r), file=out)
    for stage, state in r.progress.items():
        print(f"  {stage:<16}{state}", file=out)
    if r.error:
        print(f"  error: {r.error.splitlines()[0]}", file=out)
    if r.summary:
        print(
            f"  result: {r.summary['contigs']} contigs, "
            f"{r.summary['total_bases']} bases, "
            f"{r.summary['stages_cached']} stage(s) from cache",
            file=out,
        )
    return 0


def _print_event(event: dict, out) -> None:
    fields = {k: v for k, v in event.items() if k not in ("t", "event")}
    extra = f"  {json.dumps(fields, sort_keys=True)}" if fields else ""
    print(f"{event['event']}{extra}", file=out)


def _cmd_watch(svc: JobService, args, out) -> int:
    svc.status(args.job_id)  # unknown job ids fail before we tail
    deadline = time.monotonic() + args.timeout
    if args.follow:
        # incremental tail over the JSONL log: no re-reads, and the
        # generator drains once more after the job goes terminal so the
        # final event is never missed
        def should_stop() -> bool:
            return (
                svc.status(args.job_id).terminal
                or time.monotonic() >= deadline
            )

        for event in svc.store.follow_events(
            args.job_id, poll=args.poll, should_stop=should_stop
        ):
            _print_event(event, out)
        record = svc.status(args.job_id)
        if not record.terminal:
            raise CliError(f"timed out watching {args.job_id}")
        print(f"state: {record.state}", file=out)
        return 0 if record.state == "done" else 1
    seen = 0
    while True:
        for event in svc.events(args.job_id, since=seen):
            _print_event(event, out)
            seen += 1
        record = svc.status(args.job_id)
        if record.terminal:
            print(f"state: {record.state}", file=out)
            return 0 if record.state == "done" else 1
        if time.monotonic() >= deadline:
            raise CliError(f"timed out watching {args.job_id}")
        time.sleep(args.poll)


def _cmd_cancel(svc: JobService, args, out) -> int:
    record = svc.cancel(args.job_id)
    print(f"{record.job_id}: {record.state}"
          + ("" if record.terminal else " (cancel requested)"), file=out)
    return 0


def _cmd_gc(svc: JobService, args, out) -> int:
    stats = svc.gc(args.budget_mb)
    print(
        f"evicted {len(stats['gc_evicted'])} entr(ies); "
        f"{stats['entries']} remain, {stats['total_bytes']} bytes "
        f"({stats['pinned']} pinned)",
        file=out,
    )
    return 0


def _top_frame(svc: JobService) -> str:
    """One rendered ``top`` frame: states, fleet metrics, cache stats."""
    from ..service.store import JOB_STATES
    from ..telemetry.metrics import MetricsRegistry

    records = svc.list_jobs()
    counts = {state: 0 for state in JOB_STATES}
    for r in records:
        counts[r.state] = counts.get(r.state, 0) + 1
    lines = [
        "jobs:     "
        + "  ".join(f"{state}={counts[state]}" for state in JOB_STATES)
        + f"  total={len(records)}"
    ]
    running = [r for r in records if r.state == "running"]
    for r in running:
        worker = (r.lease or {}).get("worker", "?")
        done = sum(1 for v in r.progress.values() if v in ("done", "cached"))
        lines.append(
            f"  {r.job_id}  worker={worker}  "
            f"stages {done}/{len(r.progress) or '?'}"
        )
    # fold every worker's persisted snapshot into one fleet-wide registry
    fleet = MetricsRegistry()
    workers = []
    metrics_dir = svc.store.metrics_dir
    if metrics_dir.is_dir():
        for path in sorted(metrics_dir.glob("*.json")):
            try:
                with open(path, encoding="utf-8") as fh:
                    snap = json.load(fh)
            except (OSError, json.JSONDecodeError):
                continue
            workers.append(snap.get("worker", path.stem))
            fleet.merge(snap)
    lines.append("")
    lines.append(
        f"metrics ({len(workers)} worker snapshot(s)"
        + (": " + ", ".join(workers) if workers else "")
        + ")"
    )
    lines.append(fleet.render())
    stats = svc.cache.stats()
    lines.append("")
    lines.append(
        f"cache:    {stats['entries']} entries, {stats['total_bytes']} bytes"
        f" ({stats['pinned']} pinned), hits={stats['hits']} "
        f"misses={stats['misses']} evictions={stats['evictions']}"
    )
    return "\n".join(lines)


def _cmd_top(svc: JobService, args, out) -> int:
    frames = 0
    while True:
        print(_top_frame(svc), file=out)
        frames += 1
        if not args.watch:
            return 0
        if args.iterations is not None and frames >= args.iterations:
            return 0
        print("", file=out)
        time.sleep(args.interval)


def _cmd_worker(svc: JobService, args, out) -> int:
    if args.adopt:
        for job_id in svc.resume():
            print(f"re-queued orphan {job_id}", file=out)
    fault_plan = (
        FaultPlan.load(args.fault_plan) if args.fault_plan else None
    )
    done = svc.run_worker(
        max_jobs=args.max_jobs,
        worker_id=args.worker_id,
        fault_plan=fault_plan,
    )
    for record in done:
        cached = (record.summary or {}).get("stages_cached", 0)
        print(
            f"{record.job_id}: {record.state}"
            + (f" ({cached} stage(s) from cache)"
               if record.state == "done" else ""),
            file=out,
        )
    print(f"processed {len(done)} job(s)", file=out)
    return 0


_COMMANDS = {
    "submit": _cmd_submit,
    "list": _cmd_list,
    "status": _cmd_status,
    "watch": _cmd_watch,
    "cancel": _cmd_cancel,
    "gc": _cmd_gc,
    "top": _cmd_top,
    "worker": _cmd_worker,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """Parse arguments and dispatch one job-engine subcommand."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](_service(args), args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
