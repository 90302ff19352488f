"""Observability: the span ring, metrics, telemetry and exporters.

``repro.obs`` is the instrumentation layer the rest of the simulator
reports into:

* :class:`SpanRecorder` / :class:`Span` — the run's one event log
  (``sim.spans``), a bounded ring of hierarchical frame-stage spans and
  instant marks, aggregated by ``repro.metrics.spans`` and exported as
  Chrome trace-event JSON by :func:`chrome_trace`;
* :class:`MetricsRegistry` — counters, gauges and histograms
  (``sim.metrics``) wired into transport retransmissions, switching
  decisions, cache hit rates and fleet admission/migration outcomes;
* :class:`TelemetryHub` (``sim.telemetry``, armed on demand) — labeled
  :class:`TimeSeries` windows on the sim clock, declarative
  :class:`SloSpec` objectives with multi-window burn-rate alerting, and
  ARMAX-residual drift detection (:class:`ResidualDriftDetector`);
* :class:`CausalLog` (``sim.causal``, armed on demand) — stamps each
  frame with a deterministic wire-propagated :class:`TraceContext` whose
  id rides the frame's span-ring rows, with :class:`ExemplarReservoir`
  tail exemplars feeding histograms and SLO alerts;
* :class:`FlightRecorder` (``sim.flight``, armed on demand) — freezes
  schema-versioned postmortem bundles on page alerts, invariant
  violations and replans.
"""

from repro.obs.anomaly import EwmaStats, ResidualDriftDetector
from repro.obs.causal import (
    TRACE_WIRE_BYTES,
    CausalLog,
    ExemplarReservoir,
    TraceContext,
    derive_trace_id,
)
from repro.obs.export import (
    TRACE_SCHEMA,
    chrome_trace,
    merged_chrome_trace,
    trace_categories,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.flight import FLIGHT_SCHEMA, FlightRecorder, validate_bundle
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
    percentile,
)
from repro.obs.slo import Alert, SloSpec, SloTracker
from repro.obs.spans import OpenSpan, Span, SpanRecorder
from repro.obs.telemetry import (
    TelemetryHub,
    default_fleet_slos,
    default_session_slos,
)
from repro.obs.timeseries import TimeSeries, TimeSeriesBank, series_key

__all__ = [
    "Alert",
    "CausalLog",
    "ExemplarReservoir",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "TRACE_SCHEMA",
    "TRACE_WIRE_BYTES",
    "TraceContext",
    "Counter",
    "EwmaStats",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OpenSpan",
    "ResidualDriftDetector",
    "SloSpec",
    "SloTracker",
    "Span",
    "SpanRecorder",
    "TelemetryHub",
    "TimeSeries",
    "TimeSeriesBank",
    "chrome_trace",
    "default_fleet_slos",
    "default_session_slos",
    "derive_trace_id",
    "merged_chrome_trace",
    "metric_key",
    "percentile",
    "series_key",
    "trace_categories",
    "validate_bundle",
    "validate_chrome_trace",
    "write_chrome_trace",
]
