"""Metrics registry: counters, gauges and histograms for one join run.

Every join run owns one :class:`MetricsRegistry`.  A join's numbers
have one home, :class:`~repro.engine.metrics.JoinMetrics`: the pipeline's
stages assign its fields and the job epilogue publishes each of them
once, as the gauge ``join.<field>`` (``join.extra.<key>`` for the
annotations).  A gauge/counter stores exactly the value it was handed
(no float coercion of ints), so the registry reads the same numbers the
metrics hold.  The serving layer keeps its own registry of counters
(occurrences) and histograms (latency distributions).

Histograms use **fixed bucket bounds** (seconds by default) so quantile
estimates are mergeable and never require keeping raw samples: the
``q``-quantile is read off the cumulative bucket counts, linearly
interpolated inside the winning bucket.

The registry additionally carries a ``meta`` side-table for small
structured artifacts a :class:`~repro.engine.telemetry.report.RunReport`
wants verbatim (the job header, the per-worker modelled clocks, the
modelled stage makespans, the shuffle byte matrix, the planner's
pick).  All metric updates are cheap enough to stay always-on; the
registry exists even when tracing is disabled.
"""

from __future__ import annotations

import threading

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram bucket upper bounds, in seconds: microseconds for
#: kernel calls through minutes for whole jobs.
DEFAULT_BUCKETS = (
    1e-5, 1e-4, 1e-3, 5e-3, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0, 300.0,
)


class Counter:
    """A monotonically increasing count (occurrences, totals)."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount=1):
        """Add ``amount`` (int or float); returns the new value."""
        self.value = self.value + amount
        return self.value

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value (an end-of-run total, a peak, a size).

    ``set`` stores the value *as given* -- an int stays an int -- and
    returns it.
    """

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value):
        self.value = value
        return value

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Fixed-bucket histogram with interpolated quantile estimates."""

    kind = "histogram"
    __slots__ = ("name", "bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, buckets=DEFAULT_BUCKETS):
        self.name = name
        self.bounds = tuple(sorted(float(b) for b in buckets))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        # one count per bound, plus the overflow bucket
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1) from the bucket counts.

        Interpolates linearly inside the winning bucket; the overflow
        bucket reports the observed maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= rank:
                if i == len(self.bounds):
                    return self.max
                lo = self.bounds[i - 1] if i else 0.0
                hi = self.bounds[i]
                fraction = (rank - cumulative) / bucket_count
                return lo + (hi - lo) * min(1.0, max(0.0, fraction))
            cumulative += bucket_count
        return self.max

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": dict(zip(self.bounds, self.counts)),
            "overflow": self.counts[-1],
        }


class MetricsRegistry:
    """Named metrics for one run, plus a ``meta`` side-table.

    ``counter``/``gauge``/``histogram`` get-or-create by name; asking
    for an existing name with a different kind is a bug and raises.
    Creation takes a lock; updates on the returned metric objects are
    driver-thread operations and need none.
    """

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()
        #: Small structured artifacts for the run report (JSON-able).
        self.meta: dict[str, object] = {}

    def _get_or_create(self, name: str, factory, kind: str):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif metric.kind != kind:
                raise TypeError(
                    f"metric {name!r} is a {metric.kind}, not a {kind}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name), "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name), "gauge")

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, buckets), "histogram"
        )

    def value(self, name: str, default=0):
        """The current value of a counter/gauge (``default`` if absent)."""
        metric = self._metrics.get(name)
        if metric is None or metric.kind == "histogram":
            return default
        return metric.value

    def set_meta(self, name: str, value) -> None:
        self.meta[name] = value

    def get_meta(self, name: str, default=None):
        return self.meta.get(name, default)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> dict:
        """Every metric (and the meta table) as plain JSON-able data."""
        with self._lock:
            metrics = {
                name: metric.snapshot()
                for name, metric in sorted(self._metrics.items())
            }
        return {"metrics": metrics, "meta": dict(self.meta)}
