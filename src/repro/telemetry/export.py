"""Trace exporters: Chrome trace-event JSON, JSONL, and summary tables.

``to_chrome_trace`` renders a :class:`~repro.telemetry.spans.Tracer` in
the Chrome trace-event format (load the file at ``chrome://tracing`` or
https://ui.perfetto.dev).  Timestamps are **modeled** seconds expressed
in microseconds; lanes (``tid``) are one per rank plus a pipeline lane
for run/stage/superstep structure, so the per-rank view mirrors the
paper's Fig. 5 breakdown.  Collectives appear on every participating
rank's lane -- the synchronized block is the visual signature of a
communication-bound phase.

``write_jsonl`` emits one span per line with explicit ids/parents (the
format the job engine persists per job); ``summary_table`` folds a trace
into a per-stage text table; ``validate_trace`` is the schema check CI
runs against uploaded trace artifacts.
"""

from __future__ import annotations

import json
from typing import Any

from .spans import Span, Tracer

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "iter_jsonl_records",
    "write_jsonl",
    "summary_table",
    "validate_trace",
]

_US = 1e6  # modeled seconds -> trace-event microseconds

#: categories drawn on the per-rank lanes (everything else is pipeline-level)
_RANK_CATS = ("rank", "kernel", "stall")


def _root_of(trace: "Tracer | Span") -> Span:
    return trace.root if isinstance(trace, Tracer) else trace


def to_chrome_trace(
    trace: "Tracer | Span", include_wall: bool = False
) -> dict:
    """The trace as a Chrome trace-event JSON object.

    ``include_wall`` adds each span's wall-clock duration to its args
    (timeline positions stay modeled either way, so two runs of one
    input render the same picture).
    """
    root = _root_of(trace)
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro modeled timeline"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "pipeline"},
        },
        {
            "name": "thread_sort_index",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"sort_index": 0},
        },
    ]
    named_lanes: set[int] = set()

    def lane_meta(tid: int, label: str) -> None:
        if tid in named_lanes:
            return
        named_lanes.add(tid)
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": label},
            }
        )
        events.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )

    def emit(span: Span, tid: int) -> None:
        args: dict[str, Any] = dict(span.attrs)
        if include_wall and span.wall is not None:
            args["wall_seconds"] = span.wall
        events.append(
            {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": span.t0 * _US,
                "dur": span.duration * _US,
                "pid": 0,
                "tid": tid,
                "args": args,
            }
        )

    for span in root.walk():
        if span.cat in _RANK_CATS and span.rank is not None:
            tid = int(span.rank) + 1
            lane_meta(tid, f"rank {span.rank}")
            emit(span, tid)
        elif span.cat == "collective":
            for rank in span.attrs.get("ranks", ()):
                tid = int(rank) + 1
                lane_meta(tid, f"rank {rank}")
                emit(span, tid)
        else:
            emit(span, 0)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    trace: "Tracer | Span", path, include_wall: bool = False
) -> int:
    """Write Chrome trace JSON to ``path``; returns the event count."""
    obj = to_chrome_trace(trace, include_wall=include_wall)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
        fh.write("\n")
    return len(obj["traceEvents"])


def iter_jsonl_records(trace: "Tracer | Span", include_wall: bool = True):
    """Flat span records with explicit ``id``/``parent`` links."""
    root = _root_of(trace)
    stack: list[tuple[Span, int | None]] = [(root, None)]
    next_id = 0
    while stack:
        span, parent = stack.pop()
        sid = next_id
        next_id += 1
        record = span.to_dict(include_wall=include_wall)
        record.pop("children", None)
        record["id"] = sid
        record["parent"] = parent
        yield record
        # reversed so children pop in document order
        for child in reversed(span.children):
            stack.append((child, sid))


def write_jsonl(
    trace: "Tracer | Span", path, include_wall: bool = True
) -> int:
    """Write one span per line to ``path``; returns the span count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in iter_jsonl_records(trace, include_wall=include_wall):
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            n += 1
    return n


def summary_table(trace: "Tracer | Span") -> str:
    """Per-stage rollup: modeled time, supersteps, collectives, bytes."""
    root = _root_of(trace)
    rows: list[dict] = []
    for stage in root.children:
        if stage.cat != "stage":
            continue
        if "skipped" in stage.attrs:
            rows.append({"name": stage.name, "skipped": stage.attrs["skipped"]})
            continue
        supersteps = collectives = 0
        comm_seconds = comm_bytes = 0.0
        for span in stage.walk():
            if span.cat == "superstep":
                supersteps += 1
            elif span.cat == "collective":
                collectives += 1
                comm_seconds += span.duration
                comm_bytes += span.attrs.get("total_bytes", 0)
        rows.append(
            {
                "name": stage.name,
                "seconds": stage.duration,
                "supersteps": supersteps,
                "collectives": collectives,
                "comm_seconds": comm_seconds,
                "comm_bytes": comm_bytes,
            }
        )
    lines = [
        f"trace summary -- {root.name}  "
        f"modeled total {root.duration:.4f}s"
        + (f"  wall {root.wall:.3f}s" if root.wall is not None else ""),
        f"{'stage':<18}{'seconds':>10}{'ssteps':>8}{'colls':>7}"
        f"{'comm(s)':>10}{'comm MB':>9}",
    ]
    for row in rows:
        if "skipped" in row:
            lines.append(f"{row['name']:<18}  skipped ({row['skipped']})")
            continue
        lines.append(
            f"{row['name']:<18}{row['seconds']:>10.4f}{row['supersteps']:>8}"
            f"{row['collectives']:>7}{row['comm_seconds']:>10.4f}"
            f"{row['comm_bytes'] / 1e6:>9.3f}"
        )
    return "\n".join(lines)


def validate_trace(obj: dict) -> list[str]:
    """Schema-check a Chrome trace object; returns a list of problems.

    An empty list means the artifact is loadable by ``chrome://tracing``:
    a ``traceEvents`` array of complete (``ph="X"``, numeric non-negative
    ``ts``/``dur``) or metadata (``ph="M"``) events, each with a name and
    integer pid/tid.
    """
    errors: list[str] = []
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    if not events:
        errors.append("traceEvents is empty")
    for i, event in enumerate(events):
        where = f"event {i}"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "M"):
            errors.append(f"{where}: unsupported ph {ph!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            errors.append(f"{where}: missing name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                errors.append(f"{where}: {key} must be an int")
        if ph == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)):
                    errors.append(f"{where}: {key} must be numeric")
                elif value < 0:
                    errors.append(f"{where}: {key} is negative ({value})")
        if "args" in event and not isinstance(event["args"], dict):
            errors.append(f"{where}: args must be an object")
    return errors
