"""The alert-triggered flight recorder: evidence frozen before you need it.

A :class:`FlightRecorder` armed on a simulator (``sim.flight``) keeps no
state of its own until something goes wrong — the *pre-trigger buffer* is
the instrumentation the run already carries (the span ring, the metrics
registry, the telemetry hub).  The moment a page-level SLO alert fires,
an invariant violation is recorded, or the planner re-plans
mid-session, the recorder freezes a **postmortem bundle**: the newest
marks of the span ring, a metrics snapshot, the registered evidence
sources (admission ledger, plan decision log, replay store stats), and,
with causal tracing armed, the triggering frame's causal trace: the
ring's rows that carry its trace id.

Bundles are schema-versioned, JSON-able, and byte-identical per seed:
every value is rounded deterministically and every key sorted, and the
bundle carries a sha256 digest over itself so CI can diff it against a
committed baseline (``BENCH_POSTMORTEM.json``).  The bundle count is
bounded — after ``max_bundles`` triggers the recorder counts suppressed
triggers instead of growing without bound.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.obs.digest import digest_of

#: bundle schema identifier, bumped on incompatible changes
FLIGHT_SCHEMA = "repro.flight_bundle/2"

#: span-ring marks captured behind the trigger point
DEFAULT_TRACE_TAIL = 256

#: bundles kept before suppression kicks in
DEFAULT_MAX_BUNDLES = 4


def _jsonable(value: Any) -> Any:
    """Deterministic JSON projection: floats rounded, unknowns repr'd."""
    if isinstance(value, float):
        return round(value, 4)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)


def _row(span) -> Dict[str, Any]:
    """A span-ring row as a bundle row."""
    return {
        "at_ms": round(span.start_ms, 4),
        "category": span.category,
        "event": span.name,
        "track": span.track,
        "frame_id": span.frame_id,
        "data": _jsonable(span.args),
    }


class FlightRecorder:
    """Freezes postmortem bundles on alerts, violations and replans."""

    def __init__(
        self,
        sim,
        session_id: str = "session",
        trace_tail: int = DEFAULT_TRACE_TAIL,
        max_bundles: int = DEFAULT_MAX_BUNDLES,
    ):
        if not 0 < trace_tail <= sim.spans.capacity:
            raise ValueError(
                f"trace_tail must be in (0, {sim.spans.capacity}], "
                f"got {trace_tail}"
            )
        if max_bundles <= 0:
            raise ValueError(
                f"max_bundles must be positive, got {max_bundles}"
            )
        self.sim = sim
        self.session_id = session_id
        self.trace_tail = trace_tail
        self.max_bundles = max_bundles
        self.bundles: List[Dict[str, Any]] = []
        self.suppressed = 0
        #: named evidence providers sampled at trigger time (admission
        #: ledger, plan decision log, replay store stats, ...)
        self._sources: Dict[str, Callable[[], Any]] = {}
        sim.flight = self

    # -- evidence sources ----------------------------------------------------

    def add_source(self, name: str, provider: Callable[[], Any]) -> None:
        """Register a named evidence provider, sampled at trigger time."""
        self._sources[name] = provider

    # -- trigger entry points ------------------------------------------------

    def on_alert(self, alert) -> Optional[Dict[str, Any]]:
        """A page-severity SLO alert fired."""
        exemplars = list(getattr(alert, "exemplars", ()) or ())
        return self.trigger(
            "slo_alert",
            source=alert.source,
            trace_id=exemplars[0] if exemplars else "",
            severity=alert.severity,
            state=alert.state,
            burn_short=round(alert.burn_short, 4),
            burn_long=round(alert.burn_long, 4),
            exemplars=exemplars,
        )

    def on_violation(self, violation) -> Optional[Dict[str, Any]]:
        """The invariant monitor recorded a fresh conservation-law break."""
        return self.trigger(
            "invariant_violation",
            source=violation.invariant,
            message=violation.message,
        )

    def on_replan(
        self, from_backend: str, to_backend: str, **detail: Any
    ) -> Optional[Dict[str, Any]]:
        """The planner abandoned its committed backend mid-session."""
        return self.trigger(
            "replan",
            source="planner",
            from_backend=from_backend,
            to_backend=to_backend,
            **detail,
        )

    # -- the freeze ----------------------------------------------------------

    def trigger(
        self, kind: str, source: str, trace_id: str = "", **detail: Any
    ) -> Optional[Dict[str, Any]]:
        """Freeze one postmortem bundle; returns it (or None if suppressed)."""
        if len(self.bundles) >= self.max_bundles:
            self.suppressed += 1
            return None
        sim = self.sim
        causal = getattr(sim, "causal", None)
        if not trace_id and causal is not None and causal.last_trace:
            trace_id = causal.last_trace.trace_id
        bundle: Dict[str, Any] = {
            "schema": FLIGHT_SCHEMA,
            "shard": getattr(sim, "shard_id", 0),
            "session": self.session_id,
            "seed": sim.seed,
            "trigger": {
                "kind": kind,
                "source": source,
                "at_ms": round(sim.now, 4),
                "trace_id": trace_id,
                "detail": _jsonable(detail),
            },
            "ring_tail": [
                _row(mark) for mark in sim.spans.tail_marks(self.trace_tail)
            ],
            "metrics": sim.metrics.snapshot(),
        }
        if causal is not None:
            bundle["causal_trace"] = [
                {**_row(span), "end_ms": round(span.end_ms, 4)}
                for span in sim.spans.trace_of(trace_id)
            ]
            bundle["causal_components"] = sim.spans.components_of(trace_id)
        telemetry = getattr(sim, "telemetry", None)
        if telemetry is not None:
            bundle["slos"] = {
                name: telemetry.trackers[name].summary(
                    telemetry._evaluated_upto
                )
                for name in sorted(telemetry.trackers)
            }
            bundle["alerts"] = [a.as_dict() for a in telemetry.alerts]
        bundle["sources"] = {
            name: _jsonable(self._sources[name]())
            for name in sorted(self._sources)
        }
        bundle["digest"] = digest_of(bundle)
        self.bundles.append(bundle)
        sim.spans.mark(
            "flight", "trigger", track="flight",
            kind=kind, source=source, trace_id=trace_id,
        )
        sim.metrics.counter("flight.triggers", kind=kind).inc()
        return bundle

    # -- reporting -----------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Deterministic JSON-able digest of the recorder's state."""
        return {
            "bundles": len(self.bundles),
            "suppressed": self.suppressed,
            "triggers": [
                {
                    "kind": b["trigger"]["kind"],
                    "source": b["trigger"]["source"],
                    "at_ms": b["trigger"]["at_ms"],
                    "trace_id": b["trigger"]["trace_id"],
                    "digest": b["digest"],
                }
                for b in self.bundles
            ],
        }


def validate_bundle(bundle: Any) -> List[str]:
    """Schema gate for one flight bundle; empty list == valid."""
    problems: List[str] = []
    if not isinstance(bundle, dict):
        return [f"bundle must be an object, got {type(bundle).__name__}"]
    if bundle.get("schema") != FLIGHT_SCHEMA:
        problems.append(f"'schema' must be {FLIGHT_SCHEMA!r}")
    trigger = bundle.get("trigger")
    if not isinstance(trigger, dict):
        problems.append("missing 'trigger' section")
    else:
        for key in ("kind", "source", "at_ms", "trace_id"):
            if key not in trigger:
                problems.append(f"trigger: missing {key!r}")
    for key in ("ring_tail", "metrics", "sources", "digest"):
        if key not in bundle:
            problems.append(f"missing {key!r}")
    if not isinstance(bundle.get("ring_tail"), list):
        problems.append("'ring_tail' must be a list")
    check = dict(bundle)
    digest = check.pop("digest", None)
    if isinstance(digest, str) and digest_of(check) != digest:
        problems.append("digest does not match bundle contents")
    return problems
