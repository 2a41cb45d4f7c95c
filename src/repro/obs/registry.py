"""The :class:`Observability` registry: one object per run.

The simulator owns one as ``sim.obs`` (its primary clock bound to the
simulated clock); the real engine and the benchmarks create standalone
instances whose primary clock is host wall time (``time.time``, which is
machine-wide, so spans shipped back from worker *processes* land on the
same timeline).

Everything funnels through here:

* ``span(...)`` — hierarchical spans (``force=True`` records even with
  tracing off, for the handful of per-job phase spans that double as the
  engine's own accounting),
* ``count``/``gauge``/``observe`` — the metrics registry (always on),
* ``record(...)`` — the flat record stream (on only when enabled),
* ``sample(...)`` — named time series.

Every registry carries a :attr:`run_id` — a short random token stamped
into every export so loaders can refuse to mix artifacts from different
runs — and optionally a :class:`~repro.obs.flight.FlightRecorder`, a
bounded always-on ring of recent events that counter bumps and records
feed even when tracing is off, dumped as a JSONL black box on failure.
"""

from __future__ import annotations

import time
import typing as _t
import uuid

from repro.obs import flight as _flight
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry, TimeSeries
from repro.obs.records import RecordLog, TraceRecord
from repro.obs.spans import NULL_SPAN, NullSpan, Span, SpanStore

__all__ = ["Observability"]


def _new_run_id() -> str:
    return uuid.uuid4().hex[:12]


class Observability:
    """Spans + metrics + records + series for one run."""

    __slots__ = (
        "enabled", "records", "metrics", "series", "spans", "flight",
        "run_id", "_clock",
    )

    def __init__(
        self,
        enabled: bool = False,
        keep_records: int = 100_000,
        clock: _t.Callable[[], float] | None = None,
        flight: "FlightRecorder | bool | int | None" = None,
    ):
        #: master switch for spans and records (metrics stay on)
        self.enabled = enabled
        #: provenance token stamped into every export from this registry
        self.run_id = _new_run_id()
        self.records = RecordLog(keep_records)
        self.metrics = MetricsRegistry()
        self.series: dict[str, TimeSeries] = {}
        self._clock = clock or time.time
        self.spans = SpanStore(self.now)
        #: the always-on black-box ring (None: not recording)
        self.flight: FlightRecorder | None = None
        if flight is None:
            default = _flight.default_capacity()
            if default is not None:
                self.enable_flight(default)
        elif flight is not False:
            self.enable_flight(flight)

    # -- clock -----------------------------------------------------------------

    def now(self) -> float:
        """Current primary-clock time."""
        return self._clock()

    def bind_clock(self, clock: _t.Callable[[], float]) -> None:
        """Repoint the primary clock (the simulator binds its sim clock)."""
        self._clock = clock

    # -- flight recorder -------------------------------------------------------

    def enable_flight(
        self, flight: "FlightRecorder | bool | int" = True
    ) -> FlightRecorder:
        """Attach (or replace) the flight recorder; returns it.

        ``True`` uses the default capacity, an int sets it, an instance
        is adopted as-is.  Closed spans, flat records, and counter deltas
        start landing in the ring immediately.
        """
        if isinstance(flight, FlightRecorder):
            rec = flight
            rec.run_id = self.run_id
        elif flight is True:
            rec = FlightRecorder(run_id=self.run_id)
        else:
            rec = FlightRecorder(capacity=int(flight), run_id=self.run_id)
        self.flight = rec
        self.spans.on_close = rec.note_span
        return rec

    # -- spans -----------------------------------------------------------------

    def span(
        self,
        name: str,
        cat: str = "",
        track: str = "main",
        force: bool = False,
        **attrs: object,
    ) -> Span | NullSpan:
        """Open a span (context manager).  Disabled tracing returns the
        shared :data:`~repro.obs.spans.NULL_SPAN` unless ``force`` is set.
        """
        if not (self.enabled or force):
            return NULL_SPAN
        return self.spans.open(name, cat, track, attrs)

    def add_span(
        self,
        name: str,
        t0: float,
        t1: float,
        cat: str = "",
        track: str = "main",
        parent: Span | None = None,
        wall_dur: float | None = None,
        attrs: dict | None = None,
    ) -> Span | NullSpan:
        """Stitch a pre-measured span (worker segment) into the trace."""
        if not self.enabled:
            return NULL_SPAN
        if isinstance(parent, NullSpan):
            parent = None
        return self.spans.add(
            name, t0, t1, cat=cat, track=track, parent=parent,
            wall_dur=wall_dur, attrs=attrs,
        )

    # -- records / metrics / series ------------------------------------------

    def record(self, kind: str, time_: float, detail: str = "") -> None:
        """Append a flat trace record if tracing is enabled.

        The flight recorder, when attached, sees the record regardless of
        the tracing switch — that is what makes the black box useful in
        production runs where full tracing is off.
        """
        if self.flight is not None:
            self.flight.note_record(kind, time_, detail)
        if self.enabled:
            self.records.append(TraceRecord(kind, time_, detail))

    def count(self, name: str, amount: float = 1) -> None:
        """Bump a named counter (always on)."""
        self.metrics.counters[name] += amount
        if self.flight is not None:
            self.flight.note_count(name, amount, self._clock())

    def gauge(self, name: str, value: float) -> None:
        """Set a named gauge (always on)."""
        self.metrics.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        """Histogram observation — only when tracing is enabled (the
        histograms grow unbounded, unlike counters)."""
        if self.enabled:
            self.metrics.observe(name, value)

    def sample(self, name: str, t: float, value: float) -> None:
        """Record a time-series sample under ``name``."""
        ts = self.series.get(name)
        if ts is None:
            ts = self.series[name] = TimeSeries(name)
        ts.sample(t, value)

    # -- failure dumps ---------------------------------------------------------

    def dump_blackbox(
        self, path: str, reason: str = "", extra: dict | None = None
    ) -> str | None:
        """Dump the flight ring (with this run's counters) to ``path``.

        Returns the written path, or ``None`` when no recorder is
        attached — callers print the path in their failure message.
        """
        if self.flight is None:
            return None
        return self.flight.dump(
            path, reason=reason, extra=extra,
            counters=dict(self.metrics.counters),
        )

    # -- lifecycle -------------------------------------------------------------

    def clear(self) -> None:
        """Drop spans, records, metrics, series, and the flight ring."""
        self.spans.clear()
        self.records.clear()
        self.metrics.clear()
        self.series.clear()
        if self.flight is not None:
            self.flight.clear()
