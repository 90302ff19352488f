"""The streaming telemetry hub: series + SLOs + drift detection.

:class:`TelemetryHub` is the layer above ``sim.metrics``/``sim.spans``
that can answer *"is the system currently meeting its objectives?"*.
Substrates push observations (`observe`) as they happen; the hub folds
them into labeled :class:`~repro.obs.timeseries.TimeSeries` windows on
the sim clock, classifies them against the armed
:class:`~repro.obs.slo.SloSpec` objectives, and — every time the clock
rolls past a window boundary — runs the burn-rate state machines.
State transitions and ``prediction_drift`` detections become structured
:class:`~repro.obs.slo.Alert` objects, recorded both on the hub and as
instant ``slo`` spans so they land inline with frame spans in the
Chrome-trace export.

Arming is one line — the constructor attaches itself as
``sim.telemetry`` — and every data-path feed is behind an
``if sim.telemetry is not None`` guard, so an unarmed session pays a
single attribute load per feed point.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.anomaly import ResidualDriftDetector
from repro.obs.slo import Alert, SloSpec, SloTracker
from repro.obs.timeseries import DEFAULT_WINDOW_MS, TimeSeries, TimeSeriesBank

#: label value types whose ``str`` (what names a series) is a function of
#: equality and type; ``observe`` memoizes series lookups only for these
_MEMO_LABEL_TYPES = frozenset((str, int, bool, type(None)))


def default_session_slos(
    frame_budget_ms: float = 80.0,
    fps_floor: float = 30.0,
    max_switches_per_window: float = 2.0,
    max_retx_per_window: float = 25.0,
) -> List[SloSpec]:
    """The offload session's objectives (PAPER §IV-C, §V).

    * ``frame_p99_latency`` — 99% of frames respond within the budget;
    * ``fps_floor`` — 95% of one-second windows hold the FPS floor;
    * ``switch_flap_rate`` — radio flapping stays under the cap in 95%
      of windows (a healthy predictive policy switches ahead of surges,
      not every epoch);
    * ``retransmission_rate`` — ARQ retransmissions stay under the cap
      in 90% of windows (sustained loss shows up here first).
    """
    return [
        SloSpec(
            name="frame_p99_latency",
            series="frame_response_ms",
            threshold=frame_budget_ms,
            comparison="le",
            mode="threshold",
            error_budget=0.01,
            description="99% of frames respond within the latency budget",
        ),
        SloSpec(
            name="fps_floor",
            series="frames_presented",
            threshold=fps_floor,
            comparison="ge",
            mode="window",
            error_budget=0.05,
            description="window FPS holds the floor in 95% of windows",
        ),
        SloSpec(
            name="switch_flap_rate",
            series="switching.switches",
            threshold=max_switches_per_window,
            comparison="le",
            mode="window",
            error_budget=0.05,
            description="radio switches per window stay under the flap cap",
        ),
        SloSpec(
            name="retransmission_rate",
            series="transport.retransmissions",
            threshold=max_retx_per_window,
            comparison="le",
            mode="window",
            error_budget=0.10,
            description="ARQ retransmissions per window stay under the cap",
        ),
    ]


def default_fleet_slos(
    max_reject_fraction: float = 0.30,
    admission_wait_budget_ms: float = 2_000.0,
) -> List[SloSpec]:
    """The fleet control plane's objectives.

    * ``admission_reject_rate`` — at most ``max_reject_fraction`` of
      session requests bounce even under an overload wave;
    * ``admission_wait`` — 90% of admitted sessions start within the
      queue-wait budget.
    """
    return [
        SloSpec(
            name="admission_reject_rate",
            series="fleet.rejected",
            threshold=0.0,
            comparison="le",
            mode="threshold",
            error_budget=max_reject_fraction,
            short_windows=2,
            long_windows=8,
            description="session requests rejected by admission control",
        ),
        SloSpec(
            name="admission_wait",
            series="fleet.admission_wait_ms",
            threshold=admission_wait_budget_ms,
            comparison="le",
            mode="threshold",
            error_budget=0.10,
            short_windows=2,
            long_windows=8,
            description="admitted sessions start within the wait budget",
        ),
    ]


class TelemetryHub:
    """Streaming series, SLO evaluation and drift alerts for one sim."""

    def __init__(
        self,
        sim,
        slos: Optional[Sequence[SloSpec]] = None,
        window_ms: float = DEFAULT_WINDOW_MS,
        drift_detector: Optional[ResidualDriftDetector] = None,
    ):
        self.sim = sim
        self.window_ms = window_ms
        self.bank = TimeSeriesBank(window_ms=window_ms)
        self.trackers: Dict[str, SloTracker] = {}
        #: series name -> its threshold-mode trackers, in arming order
        self._threshold: Dict[str, List[SloTracker]] = {}
        #: (name, agg, label items, label types) -> series, for ``observe``
        self._series_memo: Dict[Tuple, TimeSeries] = {}
        self.alerts: List[Alert] = []
        self.drift = drift_detector or ResidualDriftDetector()
        self._evaluated_upto = -1       # newest window already evaluated
        self._watermark = -1            # newest window any observation hit
        self.finalized = False
        for spec in slos if slos is not None else ():
            self.add_slo(spec)
        # One hub per simulator: arming is `TelemetryHub(sim, ...)`.
        sim.telemetry = self

    # -- configuration -------------------------------------------------------

    def add_slo(self, spec: SloSpec) -> SloTracker:
        if spec.name in self.trackers:
            raise ValueError(f"slo {spec.name!r} already armed")
        tracker = SloTracker(spec)
        self.trackers[spec.name] = tracker
        if spec.mode == "threshold":
            self._threshold.setdefault(spec.series, []).append(tracker)
        return tracker

    def window_of(self, t_ms: float) -> int:
        return int(t_ms // self.window_ms)

    # -- feeding -------------------------------------------------------------

    def observe(
        self,
        name: str,
        value: float = 1.0,
        agg: str = "mean",
        trace_id: Optional[str] = None,
        **labels: object,
    ) -> None:
        """Push one observation at the current sim time.

        ``trace_id`` (from the frame's wire-propagated
        :class:`~repro.obs.causal.TraceContext`) feeds the SLO trackers'
        exemplar reservoirs: a later breach alert points at the concrete
        frames that burned the budget.
        """
        values = tuple(labels.values())
        types = tuple(map(type, values))
        if _MEMO_LABEL_TYPES.issuperset(types):
            # The types keep ``True`` and ``1`` apart: equal as dict keys,
            # yet ``series_key`` names them differently.
            key = (name, agg, tuple(labels), values, types)
            series = self._series_memo.get(key)
            if series is None:
                series = self._series_memo[key] = self.bank.series(
                    name, agg=agg, **labels
                )
        else:
            series = self.bank.series(name, agg=agg, **labels)
        w = series.record(self.sim.now, value)
        if w > self._watermark:
            self._watermark = w
            self._evaluate_pending(upto_exclusive=w)
        for tracker in self._threshold.get(name, ()):
            if _labels_match(tracker.spec.labels, labels):
                tracker.observe(w, value, trace_id=trace_id)

    def track_residual(self, residual: float) -> None:
        """Feed one prediction residual (RLS innovation) from the policy."""
        now = self.sim.now
        self.bank.series("predict.residual", agg="mean").record(now, residual)
        alert = self.drift.update(residual, at_ms=now)
        if alert is not None:
            self._record_alert(alert)

    # -- evaluation ----------------------------------------------------------

    def _evaluate_pending(self, upto_exclusive: int) -> None:
        """Evaluate every completed-but-unevaluated window in order."""
        for w in range(self._evaluated_upto + 1, upto_exclusive):
            self._evaluate_window(w)
        self._evaluated_upto = max(self._evaluated_upto, upto_exclusive - 1)

    def _evaluate_window(self, window: int) -> None:
        at_ms = (window + 1) * self.window_ms
        # Window-scoped objectives have no single offending observation;
        # their breach exemplars point at the window's witness frame (the
        # newest frame stamped before the window closed).
        causal = getattr(self.sim, "causal", None)
        witness = causal.witness(at_ms) if causal is not None else None
        for tracker in self.trackers.values():
            spec = tracker.spec
            if spec.mode == "window":
                value = self._window_value(spec, window)
                tracker.observe(
                    window,
                    spec.fill if value is None else value,
                    trace_id=witness,
                )
            alert = tracker.evaluate(window, at_ms=at_ms)
            if alert is not None:
                self._record_alert(alert)

    def _window_value(self, spec: SloSpec, window: int) -> Optional[float]:
        """The window's value for a window-mode SLO.

        Label-matching series are *summed* — window objectives are
        count-shaped (frames presented, switches, retransmissions per
        window), and per-device/per-link labeled feeds must aggregate to
        the fleet-wide number the objective is stated over.
        """
        total: Optional[float] = None
        for series in self.bank.matching(spec.series):
            if not _labels_match(spec.labels, series.labels):
                continue
            value = series.value_at(window)
            if value is not None:
                total = value if total is None else total + value
        return total

    def _record_alert(self, alert: Alert) -> None:
        self.alerts.append(alert)
        # Instant span: SLO breaches land inline with frame spans in the
        # Chrome-trace export (category "slo", its own viewer track).
        self.sim.spans.add(
            "slo",
            alert.source,
            alert.at_ms,
            alert.at_ms,
            track="slo",
            instant=True,
            severity=alert.severity,
            state=alert.state,
            burn_short=round(alert.burn_short, 4),
            burn_long=round(alert.burn_long, 4),
        )
        # A page-severity alert is a flight-recorder trigger: freeze the
        # postmortem evidence the instant the budget is declared gone.
        flight = getattr(self.sim, "flight", None)
        if flight is not None and alert.severity == "page":
            flight.on_alert(alert)

    def finalize(self, end_ms: Optional[float] = None) -> None:
        """Evaluate every window completed by ``end_ms`` (default: now).

        The trailing *partial* window is never evaluated — scaling a
        fraction of a window up to a full one is exactly the
        ``fps_timeline`` bug class PR 3 fixed.
        """
        if self.finalized:
            return
        end = self.sim.now if end_ms is None else end_ms
        self._evaluate_pending(upto_exclusive=self.window_of(end))
        self.finalized = True

    # -- reporting -----------------------------------------------------------

    @property
    def breached(self) -> List[str]:
        return sorted(
            name
            for name, t in self.trackers.items()
            if t.state == "breached"
        )

    def alert_count(self, severity: Optional[str] = None) -> int:
        if severity is None:
            return len(self.alerts)
        return sum(1 for a in self.alerts if a.severity == severity)

    def report(self) -> Dict[str, object]:
        """Deterministic JSON-able summary (same seed -> same dict)."""
        return {
            "window_ms": self.window_ms,
            "windows_evaluated": self._evaluated_upto + 1,
            "slos": {
                name: self.trackers[name].summary(self._evaluated_upto)
                for name in sorted(self.trackers)
            },
            "alerts": [a.as_dict() for a in self.alerts],
            "drift": self.drift.summary(),
        }


def _labels_match(
    spec_labels: Mapping[str, object], labels: Mapping[str, object]
) -> bool:
    """A spec with labels watches only observations carrying them all."""
    return all(labels.get(k) == v for k, v in spec_labels.items())
