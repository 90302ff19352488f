"""TelemetryHub: arming, feeds, window evaluation, alert spans."""

import pytest

from repro.obs.slo import SloSpec
from repro.obs.telemetry import (
    TelemetryHub,
    default_fleet_slos,
    default_session_slos,
)
from repro.sim.kernel import Simulator


def latency_slo(**overrides):
    base = dict(
        name="lat",
        series="frame_response_ms",
        threshold=50.0,
        comparison="le",
        mode="threshold",
        error_budget=0.10,
        short_windows=2,
        long_windows=6,
    )
    base.update(overrides)
    return SloSpec(**base)


def fps_slo(**overrides):
    base = dict(
        name="fps",
        series="frames_presented",
        threshold=3.0,
        comparison="ge",
        mode="window",
        error_budget=0.10,
        short_windows=2,
        long_windows=6,
    )
    base.update(overrides)
    return SloSpec(**base)


class FakeClock:
    """Stands in for a Simulator: just `now`, `spans`, `telemetry`."""

    def __init__(self):
        from repro.obs.spans import SpanRecorder

        self.now = 0.0
        self.spans = SpanRecorder(clock=lambda: self.now)
        self.telemetry = None


class TestArming:
    def test_constructor_attaches_to_simulator(self):
        sim = Simulator(seed=0)
        hub = TelemetryHub(sim)
        assert sim.telemetry is hub

    def test_simulator_slot_defaults_to_none(self):
        assert Simulator(seed=0).telemetry is None

    def test_duplicate_slo_rejected(self):
        hub = TelemetryHub(FakeClock(), slos=[latency_slo()])
        with pytest.raises(ValueError):
            hub.add_slo(latency_slo())

    def test_default_slo_sets_validate(self):
        for spec in default_session_slos() + default_fleet_slos():
            spec.validate()
        names = {s.name for s in default_session_slos()}
        assert {
            "frame_p99_latency", "fps_floor",
            "switch_flap_rate", "retransmission_rate",
        } <= names


class TestThresholdMode:
    def test_observations_classified_and_windows_evaluated_lazily(self):
        sim = FakeClock()
        hub = TelemetryHub(sim, slos=[latency_slo()])
        tracker = hub.trackers["lat"]
        sim.now = 100.0
        for _ in range(9):
            hub.observe("frame_response_ms", 20.0)
        hub.observe("frame_response_ms", 99.0)
        assert tracker.good == 9 and tracker.bad == 1
        # Window 0 is still open: nothing evaluated yet.
        assert hub._evaluated_upto == -1
        # Crossing into window 1 evaluates window 0.
        sim.now = 1100.0
        hub.observe("frame_response_ms", 20.0)
        assert hub._evaluated_upto == 0

    def test_labeled_spec_watches_matching_feeds_only(self):
        sim = FakeClock()
        hub = TelemetryHub(
            sim, slos=[latency_slo(labels={"transport": "uplink"})]
        )
        tracker = hub.trackers["lat"]
        hub.observe("frame_response_ms", 99.0, transport="downlink")
        assert tracker.bad == 0
        hub.observe("frame_response_ms", 99.0, transport="uplink")
        assert tracker.bad == 1
        # Extra labels beyond the spec's still match (subset semantics).
        hub.observe("frame_response_ms", 10.0, transport="uplink", seq=4)
        assert tracker.good == 1


class TestWindowMode:
    def test_window_values_summed_across_labeled_series(self):
        """Per-device counts aggregate to the objective's global number."""
        sim = FakeClock()
        hub = TelemetryHub(sim, slos=[fps_slo()])
        sim.now = 100.0
        for _ in range(2):
            hub.observe("frames_presented", 1.0, agg="count", device="a")
        for _ in range(2):
            hub.observe("frames_presented", 1.0, agg="count", device="b")
        sim.now = 1200.0
        hub.observe("frames_presented", 1.0, agg="count", device="a")
        assert hub.trackers["fps"].good == 1       # 2 + 2 >= 3
        hub.finalize(end_ms=2500.0)
        # Window 1 had one frame -> bad; window 2 is partial, skipped.
        assert hub.trackers["fps"].bad == 1

    def test_empty_windows_use_fill(self):
        """A silent second violates an FPS floor (fill=0 < threshold)."""
        sim = FakeClock()
        hub = TelemetryHub(sim, slos=[fps_slo()])
        sim.now = 500.0
        for _ in range(4):
            hub.observe("frames_presented", 1.0, agg="count")
        sim.now = 3500.0                           # windows 1-2 silent
        hub.observe("frames_presented", 1.0, agg="count")
        tracker = hub.trackers["fps"]
        assert tracker.good == 1 and tracker.bad == 2

    def test_finalize_never_evaluates_partial_trailing_window(self):
        sim = FakeClock()
        hub = TelemetryHub(sim, slos=[fps_slo()])
        sim.now = 300.0
        hub.observe("frames_presented", 1.0, agg="count")
        hub.finalize(end_ms=999.0)                 # window 0 incomplete
        assert hub.trackers["fps"].good + hub.trackers["fps"].bad == 0
        assert hub.finalized
        hub.finalize(end_ms=99_000.0)              # idempotent once final
        assert hub.trackers["fps"].good + hub.trackers["fps"].bad == 0


class TestAlertsAndReport:
    def test_breach_records_alert_and_instant_slo_span(self):
        sim = FakeClock()
        hub = TelemetryHub(sim, slos=[latency_slo()])
        sim.now = 100.0
        for _ in range(10):
            hub.observe("frame_response_ms", 99.0)
        sim.now = 1100.0
        hub.observe("frame_response_ms", 99.0)
        assert hub.breached == ["lat"]
        assert hub.alert_count("page") == 1
        (span,) = sim.spans.by_category("slo")
        assert span.instant
        assert span.name == "lat"
        assert span.args["severity"] == "page"
        assert span.args["state"] == "breached"

    def test_drift_alerts_flow_through_hub(self):
        sim = FakeClock()
        hub = TelemetryHub(sim)
        for i in range(60):
            sim.now = float(i)
            hub.track_residual(0.5 if i % 2 else -0.5)
        for i in range(15):
            sim.now = 100.0 + i
            hub.track_residual(30.0 * (1.5 ** i))
        assert hub.alert_count() == 1
        assert hub.alerts[0].source == "prediction_drift"
        assert sim.spans.by_category("slo")
        assert hub.bank.get("predict.residual") is not None

    def test_report_deterministic_and_sorted(self):
        sim = FakeClock()
        hub = TelemetryHub(sim, slos=[latency_slo(), fps_slo()])
        sim.now = 100.0
        hub.observe("frame_response_ms", 20.0)
        hub.observe("frames_presented", 1.0, agg="count")
        hub.finalize(end_ms=1500.0)
        report = hub.report()
        assert list(report["slos"]) == ["fps", "lat"]
        assert report["windows_evaluated"] == 1
        assert report == hub.report()


class TestObserveMemo:
    """``observe`` memoizes its series lookup; the memo must name the
    same series ``series_key`` would and keep the bank's agg check."""

    def test_true_and_one_are_distinct_series(self):
        hub = TelemetryHub(FakeClock())
        for _ in range(2):                  # second round hits the memo
            hub.observe("x", 1.0, flag=True)
            hub.observe("x", 2.0, flag=1)
            hub.observe("x", 3.0, flag="1")
        keys = [s.key for s in hub.bank.matching("x")]
        assert keys == ["x{flag=1}", "x{flag=True}"]
        assert hub.bank.get("x", flag=True).observations == 2
        assert hub.bank.get("x", flag=1).observations == 4

    def test_float_labels_bypass_the_memo(self):
        hub = TelemetryHub(FakeClock())
        hub.observe("x", 1.0, level=0.0)
        hub.observe("x", 1.0, level=-0.0)
        assert [s.key for s in hub.bank.matching("x")] == [
            "x{level=-0.0}", "x{level=0.0}",
        ]

    def test_agg_mismatch_raises_after_a_memo_hit(self):
        hub = TelemetryHub(FakeClock())
        hub.observe("x", 1.0, agg="sum", link="wifi")
        hub.observe("x", 1.0, agg="sum", link="wifi")
        with pytest.raises(ValueError):
            hub.observe("x", 1.0, agg="max", link="wifi")

    def test_threshold_trackers_see_only_their_series_and_labels(self):
        hub = TelemetryHub(FakeClock())
        a = hub.add_slo(latency_slo(name="a"))
        b = hub.add_slo(latency_slo(name="b", labels={"device": "shield"}))
        w = hub.add_slo(fps_slo(name="w", series="frame_response_ms"))
        other = hub.add_slo(latency_slo(name="o", series="other"))
        hub.observe("frame_response_ms", 10.0, device="shield")
        hub.observe("frame_response_ms", 90.0, device="minix")
        assert (a.good, a.bad) == (1, 1)
        assert (b.good, b.bad) == (1, 0)
        assert (w.good + w.bad, other.good + other.bad) == (0, 0)
