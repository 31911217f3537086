"""Observability for the simulated runtime: span traces and metrics.

Three pieces:

* :mod:`~repro.telemetry.spans` -- :class:`Tracer`, a deterministic
  span tree (run -> stage -> superstep -> collective/kernel) stamped
  with the modeled SimWorld clock; bit-identical across runs, with
  optional wall-time annotations;
* :mod:`~repro.telemetry.metrics` -- a process-wide
  :class:`MetricsRegistry` (counters and histograms) the mpi,
  service and faults layers publish into;
* :mod:`~repro.telemetry.export` -- Chrome trace-event JSON, JSONL and
  flat summary renderings with per-rank lanes.
"""

from .export import (
    iter_jsonl_records,
    summary_table,
    to_chrome_trace,
    validate_trace,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from .spans import Span, TelemetryError, Tracer

__all__ = [
    "Span",
    "Tracer",
    "TelemetryError",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "DEFAULT_BUCKETS",
    "to_chrome_trace",
    "write_chrome_trace",
    "iter_jsonl_records",
    "write_jsonl",
    "summary_table",
    "validate_trace",
]
