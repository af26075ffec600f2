"""The metrics registry: counters, gauges, and histograms.

Trace events answer "what happened, in what causal order"; metrics
answer "how much".  A :class:`MetricsRegistry` is a flat name -> metric
map that instrumented components update while a collector is attached
(the :class:`~repro.obs.collector.TraceCollector` auto-counts every
emitted ``category.name``, and hot sites add explicit histograms such as
the read-miss round trip).  ``snapshot()`` renders the whole registry as
a plain JSON-safe tree.

No locks, no time sources, no background threads: the simulator is
single-threaded and deterministic, and the registry must be too.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, delta: int = 1) -> None:
        """Add ``delta`` (must be >= 0 to stay a counter)."""
        self.value += delta


class Gauge:
    """A set-to-latest value (queue depths, horizon positions)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Summary statistics over observed samples.

    Stores count/sum/min/max plus a bounded, *deterministic* sample
    reservoir for quantiles: the bench snapshot wants scalar series that
    diff cleanly across PRs, and the monitor wants p50/p95/p99 latency
    without external tooling.  The reservoir keeps every ``stride``-th
    sample and doubles the stride when full (a systematic thinning, not
    random reservoir sampling — the registry must stay deterministic),
    so quantiles are exact below :data:`SAMPLE_LIMIT` observations and a
    stride-spaced approximation above it.
    """

    #: Reservoir capacity; thinning doubles the stride at this size.
    SAMPLE_LIMIT = 512

    __slots__ = ("count", "total", "min", "max", "_samples", "_stride")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list = []
        self._stride = 1

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if (self.count - 1) % self._stride == 0:
            if len(self._samples) >= self.SAMPLE_LIMIT:
                self._samples = self._samples[::2]
                self._stride *= 2
                if (self.count - 1) % self._stride != 0:
                    return
            self._samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (nearest-rank) of the kept samples."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[rank]

    def as_dict(self) -> Dict[str, float]:
        if not self.count:
            return {
                "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0,
            }
        ordered = sorted(self._samples)
        n = len(ordered)
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": ordered[min(n - 1, int(0.50 * n))],
            "p95": ordered[min(n - 1, int(0.95 * n))],
            "p99": ordered[min(n - 1, int(0.99 * n))],
        }


class MetricsRegistry:
    """A flat, create-on-access map of named metrics."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge()
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram()
        return metric

    def count_of(self, name: str) -> int:
        """A counter's value, 0 if it never incremented."""
        metric = self.counters.get(name)
        return metric.value if metric is not None else 0

    def ratio(self, numerator: str, denominator: str) -> float:
        """Counter ratio (e.g. invalidations per write); 0 when undefined."""
        denom = self.count_of(denominator)
        return self.count_of(numerator) / denom if denom else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe tree of every metric, sorted for stable diffs."""
        return {
            "counters": {
                name: metric.value
                for name, metric in sorted(self.counters.items())
            },
            "gauges": {
                name: metric.value
                for name, metric in sorted(self.gauges.items())
            },
            "histograms": {
                name: metric.as_dict()
                for name, metric in sorted(self.histograms.items())
            },
        }
