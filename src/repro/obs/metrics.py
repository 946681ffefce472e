"""Metrics registry: counters, gauges and histograms for simulator runs.

A tiny Prometheus-flavoured registry the engine populates while tracing is
enabled: counters (jobs started / finished / preempted, packed
placements), time-series gauges (queue depth over simulated time) and
histograms (scheduler wall-clock per ``schedule()`` call).  The registry
snapshot is surfaced on :class:`~repro.sim.metrics.SimulationResult`
through the :class:`Telemetry` container, so benchmark harnesses and the
CLI can report scheduler-health numbers without re-deriving them from the
event log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "BucketHistogram",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Telemetry",
]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Last-value metric with an optional time series of samples."""

    __slots__ = ("name", "value", "samples", "max_samples")

    def __init__(self, name: str,
                 max_samples: Optional[int] = None) -> None:
        self.name = name
        self.value: Optional[float] = None
        #: ``(time, value)`` samples in recording order; consecutive
        #: duplicates are collapsed to keep long runs compact.
        self.samples: List[Tuple[float, float]] = []
        #: When set, only the newest ``max_samples`` samples are kept —
        #: the bound long-running daemons need (offline runs keep all).
        self.max_samples = max_samples

    def set(self, value: float, time: Optional[float] = None) -> None:
        self.value = value
        if time is not None:
            if self.samples and self.samples[-1][1] == value:
                return
            self.samples.append((time, value))
            if (self.max_samples is not None
                    and len(self.samples) > self.max_samples):
                del self.samples[:len(self.samples) - self.max_samples]

    @property
    def max(self) -> Optional[float]:
        if not self.samples:
            return self.value
        return max(v for _, v in self.samples)


class Histogram:
    """Streaming summary of an observed distribution.

    Keeps every observation (simulation runs observe at most one value per
    scheduling pass, so memory stays modest) which makes exact percentiles
    available for the scalability reports.
    """

    __slots__ = ("name", "_values")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        self._values.append(value)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return math.fsum(self._values)

    @property
    def mean(self) -> float:
        return self.total / self.count if self._values else 0.0

    @property
    def min(self) -> float:
        return min(self._values) if self._values else 0.0

    @property
    def max(self) -> float:
        return max(self._values) if self._values else 0.0

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile, ``pct`` in [0, 100]."""
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        rank = max(0, min(len(ordered) - 1,
                          int(math.ceil(pct / 100.0 * len(ordered))) - 1))
        return ordered[rank]

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }


class BucketHistogram:
    """Fixed-bucket histogram in the Prometheus exposition shape.

    Unlike :class:`Histogram` (which keeps every observation for exact
    percentiles in offline reports), this variant holds only per-bucket
    counts plus a running sum — O(buckets) memory regardless of how long
    a service runs, which is what the live ``/metrics`` endpoint needs.
    ``bounds`` are the *upper* bucket bounds; an implicit ``+Inf`` bucket
    always exists, so :meth:`cumulative` is monotone and its last count
    equals :attr:`count`.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(self, name: str, bounds: Tuple[float, ...]) -> None:
        if not bounds:
            raise ValueError("BucketHistogram needs at least one bound")
        if any(a > b for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be sorted: {bounds}")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        #: Per-bucket observation counts; index -1 is the +Inf bucket.
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` rows ending at ``+Inf``."""
        rows: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            running += bucket_count
            rows.append((bound, running))
        rows.append((math.inf, running + self.counts[-1]))
        return rows

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate, ``q`` in [0, 1].

        Returns the upper bound of the bucket holding the q-th
        observation (the finest answer bucketed counts can give); the
        largest finite bound when the rank lands in ``+Inf``.
        """
        if self.count == 0:
            return 0.0
        rank = max(1, int(math.ceil(q * self.count)))
        running = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            running += bucket_count
            if running >= rank:
                return bound
        return self.bounds[-1]

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.total,
            "mean": self.total / self.count if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Get-or-create registry of named metrics."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name)
        return metric

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-value snapshot of every registered metric.

        Counters flatten to floats, gauges to their last value (series
        are kept on the registry object itself), histograms to summary
        dicts.
        """
        out: Dict[str, Any] = {}
        for name, counter in sorted(self._counters.items()):
            out[name] = counter.value
        for name, gauge in sorted(self._gauges.items()):
            out[name] = gauge.value
        for name, hist in sorted(self._histograms.items()):
            out[name] = hist.summary()
        return out

    def gauge_series(self, name: str) -> List[Tuple[float, float]]:
        gauge = self._gauges.get(name)
        return list(gauge.samples) if gauge is not None else []


@dataclass
class Telemetry:
    """Everything observability-related collected during one run.

    Attached to :class:`~repro.sim.metrics.SimulationResult` as the
    ``telemetry`` field when (and only when) tracing was enabled.
    """

    #: Structured events retained by the tracer's ring buffer.
    events: List[Any] = field(default_factory=list)
    #: Metric snapshot from :meth:`MetricsRegistry.snapshot`.
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: The live registry (for gauge time series and exact histograms).
    registry: Optional[MetricsRegistry] = None
    #: Scheduler decision audit, when the active scheduler kept one.
    audit: Optional[Any] = None
    #: Events evicted from the tracer's ring buffer on overflow; nonzero
    #: means :attr:`events` is a truncated suffix of the run.
    dropped_events: int = 0
