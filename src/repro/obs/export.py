"""Chrome trace-event export and schema validation.

``chrome_trace`` renders a :class:`~repro.obs.spans.SpanRecorder`'s spans
as the Trace Event Format consumed by Perfetto / ``chrome://tracing``:
completed spans become ``"X"`` (complete) events, zero-duration marks
become ``"I"`` (instant) events, and every distinct span track gets a
``thread_name`` metadata record so the viewer labels its rows.  Two
optional overlays ride along: telemetry time-series render as ``"C"``
(counter) tracks — one sample per window — and structured SLO/drift
alerts render as instant events on an ``alerts`` track, so Perfetto
shows burn-rate breaches inline with the frame spans that caused them.

Frames carrying a wire-propagated trace context can additionally render
as **flow events** (``"s"``/``"t"``/``"f"``): every span stamped with the
same ``trace_id`` is chained by an arrow in the Perfetto UI, so one tail
frame's path — intercept, encode, transmit, execute, return, present —
reads as a single connected flow across tracks (and, in the merged
multi-shard export, across processes).

``validate_chrome_trace`` is the schema gate CI runs: any drift in the
exported shape (missing keys, bad phase codes, negative durations, lost
categories) comes back as a list of human-readable problems.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.obs.spans import Span, SpanRecorder

#: exported schema identifier, bumped on incompatible changes
TRACE_SCHEMA = "repro.chrome_trace/1"

#: keys every emitted trace event must carry
REQUIRED_EVENT_KEYS = ("name", "cat", "ph", "ts", "pid", "tid")

#: phase codes this exporter may legally produce ("s"/"t"/"f" = flow)
ALLOWED_PHASES = {"X", "I", "M", "C", "s", "t", "f"}

#: flow phases, which additionally require a binding "id"
FLOW_PHASES = {"s", "t", "f"}

#: tid carrying counter tracks (Perfetto keys counters by pid+name)
COUNTER_TID = 0


def _counter_events(series_source: Any, pid: int = 1) -> List[Dict[str, Any]]:
    """One ``"C"`` sample per populated window of each time-series.

    Accepts a :class:`~repro.obs.timeseries.TimeSeriesBank` or any
    iterable of :class:`~repro.obs.timeseries.TimeSeries`.
    """
    all_series = (
        series_source.all()
        if hasattr(series_source, "all")
        else list(series_source)
    )
    events: List[Dict[str, Any]] = []
    for series in all_series:
        for window, value in series.points():
            events.append(
                {
                    "name": series.key,
                    "cat": "telemetry",
                    "ph": "C",
                    "ts": round(series.window_start_ms(window) * 1000.0, 3),
                    "pid": pid,
                    "tid": COUNTER_TID,
                    "args": {series.name: round(value, 4)},
                }
            )
    return events


def _alert_events(alerts: Iterable[Any], pid: int = 1) -> List[Dict[str, Any]]:
    """Structured alerts as process-scoped instant events.

    The full alert payload rides in ``args`` — series + label selector +
    exemplar trace ids — so a breach in the Perfetto UI is
    self-describing and its exemplars can be chased into the flow arrows
    without leaving the viewer.
    """
    events: List[Dict[str, Any]] = []
    for alert in alerts:
        args: Dict[str, Any] = {
            "severity": alert.severity,
            "state": alert.state,
            "message": alert.message,
            "burn_short": round(getattr(alert, "burn_short", 0.0), 4),
            "burn_long": round(getattr(alert, "burn_long", 0.0), 4),
            "series": getattr(alert, "series", ""),
        }
        labels = dict(getattr(alert, "labels", ()) or ())
        if labels:
            args["labels"] = {k: labels[k] for k in sorted(labels, key=str)}
        exemplars = list(getattr(alert, "exemplars", ()) or ())
        if exemplars:
            args["exemplars"] = exemplars
        events.append(
            {
                "name": alert.source,
                "cat": "alert",
                "ph": "I",
                "s": "p",                         # process-scoped instant
                "ts": round(alert.at_ms * 1000.0, 3),
                "pid": pid,
                "tid": COUNTER_TID,
                "args": args,
            }
        )
    return events


def _span_events(
    spans: Iterable[Span], tid_for: Dict[str, int], pid: int = 1
) -> List[Dict[str, Any]]:
    events = []
    for span in spans:
        args: Dict[str, Any] = dict(span.args)
        if span.frame_id is not None:
            args["frame_id"] = span.frame_id
        if span.parent is not None:
            args["parent"] = span.parent
        event: Dict[str, Any] = {
            "name": span.name,
            "cat": span.category,
            "ts": round(span.start_ms * 1000.0, 3),   # microseconds
            "pid": pid,
            "tid": tid_for[span.track],
        }
        if span.instant:
            event["ph"] = "I"
            event["s"] = "t"                          # thread-scoped instant
        else:
            event["ph"] = "X"
            event["dur"] = round(span.duration_ms * 1000.0, 3)
        if args:
            event["args"] = args
        events.append(event)
    return events


def _flow_events(
    spans: Iterable[Span], tid_for: Dict[str, int], pid: int = 1
) -> List[Dict[str, Any]]:
    """Flow arrows chaining every span stamped with one ``trace_id``.

    The first span of a trace opens the flow (``"s"``), interior spans
    step it (``"t"``), the last closes it (``"f"`` binding to the
    enclosing slice) — Perfetto draws one arrow path per frame across
    client, codec, transport and server tracks.
    """
    by_trace: Dict[str, List[Span]] = {}
    for span in spans:
        trace_id = span.args.get("trace_id")
        if trace_id and not span.instant:
            by_trace.setdefault(str(trace_id), []).append(span)
    events: List[Dict[str, Any]] = []
    for trace_id in sorted(by_trace):
        chain = sorted(
            by_trace[trace_id],
            key=lambda s: (s.start_ms, s.end_ms, s.qualified_name),
        )
        if len(chain) < 2:
            continue
        for i, span in enumerate(chain):
            if i == 0:
                ph = "s"
            elif i == len(chain) - 1:
                ph = "f"
            else:
                ph = "t"
            event: Dict[str, Any] = {
                "name": "frame_flow",
                "cat": "trace",
                "ph": ph,
                "id": trace_id,
                "ts": round(span.start_ms * 1000.0, 3),
                "pid": pid,
                "tid": tid_for[span.track],
            }
            if ph == "f":
                event["bp"] = "e"         # bind finish to enclosing slice
            events.append(event)
    return events


def chrome_trace(
    spans: SpanRecorder,
    metadata: Optional[Dict[str, Any]] = None,
    series: Optional[Any] = None,
    alerts: Optional[Iterable[Any]] = None,
    pid: int = 1,
    process_name: Optional[str] = None,
    flows: bool = False,
) -> Dict[str, Any]:
    """Render the recorder's spans as a Chrome trace-event JSON object.

    ``series`` (a ``TimeSeriesBank`` or iterable of ``TimeSeries``) adds
    counter tracks; ``alerts`` (``repro.obs.slo.Alert`` objects) adds
    instant alert events.  ``pid``/``process_name`` place the whole
    export under one Perfetto process (the merged multi-shard export
    maps each ``(shard, session)`` to its own pid); ``flows=True`` adds
    trace-id flow arrows (off by default — untraced exports keep their
    exact historical bytes).
    """
    tracks = sorted({s.track for s in spans.spans})
    tid_for = {track: i + 1 for i, track in enumerate(tracks)}
    events: List[Dict[str, Any]] = []
    if process_name is not None:
        events.append(
            {
                "name": "process_name",
                "cat": "__metadata",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": process_name},
            }
        )
    events.extend(
        {
            "name": "thread_name",
            "cat": "__metadata",
            "ph": "M",
            "ts": 0,
            "pid": pid,
            "tid": tid,
            "args": {"name": track},
        }
        for track, tid in sorted(tid_for.items(), key=lambda kv: kv[1])
    )
    timed = _span_events(spans.spans, tid_for, pid=pid)
    if flows:
        timed.extend(_flow_events(spans.spans, tid_for, pid=pid))
    if series is not None:
        timed.extend(_counter_events(series, pid=pid))
    if alerts is not None:
        timed.extend(_alert_events(alerts, pid=pid))
    events.extend(
        sorted(timed, key=lambda e: (e["ts"], e["tid"], e["name"]))
    )
    other: Dict[str, Any] = {
        "schema": TRACE_SCHEMA,
        "span_count": len(spans),
        "dropped_spans": spans.dropped,
    }
    if metadata:
        other.update(metadata)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def merged_chrome_trace(
    parts: Sequence[Dict[str, Any]],
    metadata: Optional[Dict[str, Any]] = None,
    flows: bool = False,
) -> Dict[str, Any]:
    """One Chrome trace spanning many ``(shard, session)`` recorders.

    Each part is ``{"shard": int, "session": str, "spans": SpanRecorder}``
    (plus optional ``"series"``/``"alerts"``).  Parts are assigned pids
    in sorted ``(shard, session)`` order — the merged export is
    deterministic regardless of the order shards came back in — and each
    becomes its own named Perfetto process, so cross-session flows and
    alerts read side by side.
    """
    ordered = sorted(parts, key=lambda p: (p["shard"], p["session"]))
    events: List[Dict[str, Any]] = []
    span_count = 0
    dropped = 0
    for i, part in enumerate(ordered):
        sub = chrome_trace(
            part["spans"],
            series=part.get("series"),
            alerts=part.get("alerts"),
            pid=i + 1,
            process_name=f"shard{part['shard']}/{part['session']}",
            flows=flows,
        )
        events.extend(sub["traceEvents"])
        span_count += sub["otherData"]["span_count"]
        dropped += sub["otherData"]["dropped_spans"]
    other: Dict[str, Any] = {
        "schema": TRACE_SCHEMA,
        "span_count": span_count,
        "dropped_spans": dropped,
        "parts": [
            {"pid": i + 1, "shard": p["shard"], "session": p["session"]}
            for i, p in enumerate(ordered)
        ],
    }
    if metadata:
        other.update(metadata)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def trace_categories(trace: Dict[str, Any]) -> List[str]:
    """Distinct span categories present in a trace (metadata excluded)."""
    return sorted(
        {
            e.get("cat")
            for e in trace.get("traceEvents", ())
            if isinstance(e, dict) and e.get("ph") in ("X", "I")
        }
        - {None}
    )


def validate_chrome_trace(trace: Any) -> List[str]:
    """Schema gate: returns a list of problems (empty == valid)."""
    problems: List[str] = []
    if not isinstance(trace, dict):
        return [f"top level must be an object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        problems.append("missing or non-list 'traceEvents'")
        return problems
    if trace.get("displayTimeUnit") != "ms":
        problems.append("'displayTimeUnit' must be 'ms'")
    other = trace.get("otherData")
    if not isinstance(other, dict) or other.get("schema") != TRACE_SCHEMA:
        problems.append(f"'otherData.schema' must be {TRACE_SCHEMA!r}")
    if not events:
        problems.append("'traceEvents' is empty")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        missing = [k for k in REQUIRED_EVENT_KEYS if k not in event]
        if missing:
            problems.append(f"event {i}: missing keys {missing}")
            continue
        ph = event["ph"]
        if ph not in ALLOWED_PHASES:
            problems.append(f"event {i}: unknown phase {ph!r}")
        if ph in FLOW_PHASES and not event.get("id"):
            problems.append(f"event {i}: flow event needs a binding 'id'")
        if not isinstance(event["ts"], (int, float)) or event["ts"] < 0:
            problems.append(f"event {i}: bad ts {event['ts']!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i}: 'X' event needs dur >= 0")
        if ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                problems.append(
                    f"event {i}: 'C' event needs numeric args values"
                )
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"event {i}: args must be an object")
    return problems


def write_chrome_trace(
    path: str,
    spans: SpanRecorder,
    metadata: Optional[Dict[str, Any]] = None,
    series: Optional[Any] = None,
    alerts: Optional[Iterable[Any]] = None,
    flows: bool = False,
) -> Dict[str, Any]:
    """Export, validate, and write a trace file; returns the trace object.

    Raises ``ValueError`` on schema drift (:func:`save_chrome_trace`).
    """
    trace = chrome_trace(
        spans, metadata=metadata, series=series, alerts=alerts, flows=flows
    )
    save_chrome_trace(path, trace)
    return trace


def save_chrome_trace(path: str, trace: Dict[str, Any]) -> None:
    """Validate and write an already-rendered trace object.

    Raises ``ValueError`` on schema drift so callers (the CLI smoke gate)
    fail loudly instead of uploading a broken artifact.
    """
    problems = validate_chrome_trace(trace)
    if problems:
        raise ValueError(
            "chrome trace schema drift: " + "; ".join(problems[:5])
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=1, sort_keys=True)
        fh.write("\n")
