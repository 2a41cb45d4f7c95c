"""Metrics: counters, gauges, histograms, and time series.

Counters and gauges are always-on (a dict update per touch); histograms
sort lazily so ``observe`` stays O(1) and percentile queries pay one sort
per batch of inserts.  :class:`TimeSeries` keeps the step-function
semantics the simulator's samplers rely on.
"""

from __future__ import annotations

import collections
import math
import typing as _t

__all__ = ["TimeSeries", "Histogram", "MetricsRegistry"]


class TimeSeries:
    """(time, value) samples for one observable, with summary stats."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str):
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def sample(self, t: float, v: float) -> None:
        """Append a sample."""
        self.times.append(t)
        self.values.append(v)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def last(self) -> float:
        """Most recent value (0.0 if empty)."""
        return self.values[-1] if self.values else 0.0

    def mean(self) -> float:
        """Arithmetic mean of the sampled values (0.0 if empty)."""
        return sum(self.values) / len(self.values) if self.values else 0.0

    def maximum(self) -> float:
        """Largest sampled value (0.0 if empty)."""
        return max(self.values) if self.values else 0.0

    def time_weighted_mean(self, until: float | None = None) -> float:
        """Mean weighted by holding time (step-function interpretation).

        Negative holding intervals (an ``until`` earlier than the last
        sample, or out-of-order sample times) contribute zero weight; if
        every interval is empty the last value is returned, matching the
        single-sample case.
        """
        if not self.values:
            return 0.0
        end = until if until is not None else self.times[-1]
        total = 0.0
        span = 0.0
        for i, v in enumerate(self.values):
            t0 = self.times[i]
            t1 = self.times[i + 1] if i + 1 < len(self.times) else end
            dt = max(0.0, t1 - t0)
            total += v * dt
            span += dt
        return total / span if span > 0 else self.values[-1]


class Histogram:
    """A value distribution with nearest-rank percentiles."""

    __slots__ = ("name", "_values", "_dirty")

    def __init__(self, name: str):
        self.name = name
        self._values: list[float] = []
        self._dirty = False

    def observe(self, value: float) -> None:
        """Record one value."""
        self._values.append(value)
        self._dirty = True

    def _sorted(self) -> list[float]:
        if self._dirty:
            self._values.sort()
            self._dirty = False
        return self._values

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (0 < p <= 100); 0.0 if empty."""
        values = self._sorted()
        if not values:
            return 0.0
        rank = max(1, math.ceil(p / 100.0 * len(values)))
        return values[min(rank, len(values)) - 1]

    @property
    def p50(self) -> float:
        """Median."""
        return self.percentile(50)

    @property
    def p95(self) -> float:
        """95th percentile."""
        return self.percentile(95)

    @property
    def p99(self) -> float:
        """99th percentile."""
        return self.percentile(99)

    @property
    def count(self) -> int:
        """Number of observations."""
        return len(self._values)

    @property
    def total(self) -> float:
        """Sum of observations."""
        return sum(self._values)

    def mean(self) -> float:
        """Arithmetic mean (0.0 if empty)."""
        return self.total / len(self._values) if self._values else 0.0

    def summary(self) -> dict:
        """count/total/mean/min/max/p50/p95/p99 as one dict."""
        values = self._sorted()
        if not values:
            return {"count": 0}
        return {
            "count": len(values),
            "total": self.total,
            "mean": self.mean(),
            "min": values[0],
            "max": values[-1],
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms."""

    __slots__ = ("counters", "gauges", "_histograms")

    def __init__(self) -> None:
        self.counters: collections.Counter[str] = collections.Counter()
        self.gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    def count(self, name: str, amount: float = 1) -> None:
        """Bump a named counter (always on; counters are cheap)."""
        self.counters[name] += amount

    def gauge(self, name: str, value: float) -> None:
        """Set a named gauge to its latest value."""
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into a named histogram."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name)
        hist.observe(value)

    def histogram(self, name: str) -> Histogram:
        """The named histogram (created empty if missing)."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name)
        return hist

    @property
    def histograms(self) -> dict[str, Histogram]:
        """All histograms by name."""
        return self._histograms

    def snapshot(self) -> dict:
        """A JSON-safe dump: counters, gauges, histogram summaries."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {n: h.summary() for n, h in self._histograms.items()},
        }

    def clear(self) -> None:
        """Drop every metric."""
        self.counters.clear()
        self.gauges.clear()
        self._histograms.clear()
