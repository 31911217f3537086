"""A process-wide metrics registry: counters and histograms.

The runtime layers publish operational metrics here as they work --
:class:`~repro.mpi.comm.SimComm` counts collectives and payload bytes,
:meth:`~repro.mpi.comm.SimWorld.map_ranks` counts supersteps and samples
their wall time, the shared artifact cache publishes hits/misses/
evictions, the job store publishes claim/retry/terminal-state counts and
the fault injector counts every fired rule.  ``repro-jobs top`` and the
trace exporters read the registry back out.

Metrics are cumulative over the process lifetime (the Prometheus model):
tests assert on *deltas* around the operation under test, never on
absolute values.  Out-of-process workers each accumulate their own
registry; the job engine persists per-worker :meth:`snapshot` files that
:func:`merge` folds together for a fleet-wide view.

The registry is plain process state with no lock: a run publishes from
its one thread, and each worker process owns its registry.  The hot
paths do a few dict/float operations per event, which is noise next to
the kernels they instrument.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "DEFAULT_BUCKETS",
]

#: default histogram bucket upper bounds (seconds-flavored, log-spaced)
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease: {amount}")
        self.value += amount


class Histogram:
    """Bucketed observations with a running sum and count."""

    def __init__(
        self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS
    ) -> None:
        self.name = name
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError(f"histogram {self.name} needs >= 1 bucket")
        # one count per bucket bound plus the +Inf overflow bucket
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1


class MetricsRegistry:
    """Named metrics, created on first use and queryable as one snapshot."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- construction ----------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, buckets)
        return metric

    # -- queries ---------------------------------------------------------
    def value(self, name: str) -> float:
        """Current value of a counter (0.0 when never touched)."""
        metric = self._counters.get(name)
        return metric.value if metric is not None else 0.0

    def snapshot(self) -> dict:
        """A JSON-able copy of every metric (the persistence format)."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "histograms": {
                name: {
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` (e.g. another worker's) into this one.

        Counters and histogram contents add.  Other keys are ignored: a
        worker's ``"worker"`` id, and the always-empty ``"gauges"`` map
        that snapshot files written before gauges were removed carry.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(float(value))
        for name, data in snapshot.get("histograms", {}).items():
            hist = self.histogram(name, data.get("buckets", DEFAULT_BUCKETS))
            counts = data.get("counts", [])
            for i, c in enumerate(counts[: len(hist.counts)]):
                hist.counts[i] += int(c)
            hist.sum += float(data.get("sum", 0.0))
            hist.count += int(data.get("count", 0))

    def render(self) -> str:
        """A flat human-readable dump (the ``repro-jobs top`` body)."""
        snap = self.snapshot()
        lines = []
        for name, value in snap["counters"].items():
            text = f"{value:.0f}" if value == int(value) else f"{value:.3f}"
            lines.append(f"{name:<36}{text:>14}")
        for name, data in snap["histograms"].items():
            mean = data["sum"] / data["count"] if data["count"] else 0.0
            lines.append(
                f"{name:<36}{data['count']:>8} obs  "
                f"mean={mean:.4f}s sum={data['sum']:.3f}s"
            )
        return "\n".join(lines) if lines else "(no metrics)"


#: the process-wide registry every runtime layer publishes into
_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return _GLOBAL
