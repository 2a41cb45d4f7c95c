"""Observability: spans, metrics, records, and trace export.

The ``repro.obs`` package is the repo's single instrumentation layer:

* :class:`~repro.obs.spans.Span` / :class:`~repro.obs.spans.SpanStore` —
  hierarchical span tracing (context-manager API, parent/child nesting per
  track, attributes, sim-clock *and* wall-clock timestamps),
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  histograms with p50/p95/p99,
* :class:`~repro.obs.records.RecordLog` — the flat (kind, time, detail)
  record stream, kind-indexed and with a ``dropped`` overflow counter,
* :class:`~repro.obs.registry.Observability` — one object tying them
  together, owned by the :class:`~repro.sim.kernel.Simulator` (as
  ``sim.obs``) or standing alone for the real engine and benchmarks,
* :mod:`~repro.obs.export` — Chrome-trace/Perfetto JSON and JSONL
  exporters plus the loader behind ``tools/trace_view.py``,
* :class:`~repro.obs.flight.FlightRecorder` — a bounded always-on ring
  of recent events, dumped as a JSONL black box on failure,
* :class:`~repro.obs.slo.SLOTracker` /
  :class:`~repro.obs.slo.HealthReport` — per-tenant latency objectives,
  burn rates, and the scheduler's health snapshot,
* :mod:`~repro.obs.critpath` — critical-path extraction with per-edge
  slack over a recorded span tree.

Tracing is zero-cost when disabled: :meth:`Observability.span` returns the
shared :data:`~repro.obs.spans.NULL_SPAN` singleton after one attribute
check, and hot-path callers guard on ``obs.enabled`` before building any
detail strings.
"""

from repro.obs.critpath import critical_path, format_critical_path, job_critical_path
from repro.obs.flight import FlightRecorder, dump_live, install_default, read_dump
from repro.obs.metrics import Histogram, MetricsRegistry, TimeSeries
from repro.obs.records import RecordLog, TraceRecord
from repro.obs.registry import Observability
from repro.obs.slo import (
    HealthReport,
    SLOPolicy,
    SLOStatus,
    SLOTracker,
    build_health_report,
)
from repro.obs.spans import NULL_SPAN, NullSpan, Span, SpanStore

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "TimeSeries",
    "RecordLog",
    "TraceRecord",
    "Observability",
    "NULL_SPAN",
    "NullSpan",
    "Span",
    "SpanStore",
    "FlightRecorder",
    "install_default",
    "dump_live",
    "read_dump",
    "SLOPolicy",
    "SLOStatus",
    "SLOTracker",
    "HealthReport",
    "build_health_report",
    "critical_path",
    "job_critical_path",
    "format_critical_path",
]
