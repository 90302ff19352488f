"""FlightRecorder: triggers, suppression, digest validity, evidence."""

import json

import pytest

from repro.obs.causal import CausalLog
from repro.obs.flight import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    validate_bundle,
)
from repro.sim.kernel import Simulator


def make_sim():
    sim = Simulator(seed=3)
    sim.spans.mark("boot", "hello")
    return sim


class TestTriggers:
    def test_trigger_freezes_a_valid_bundle(self):
        sim = make_sim()
        flight = FlightRecorder(sim, session_id="s")
        bundle = flight.trigger("manual", source="test", why="because")
        assert bundle is not None
        assert sim.flight is flight
        assert bundle["schema"] == FLIGHT_SCHEMA
        assert bundle["trigger"]["kind"] == "manual"
        assert bundle["trigger"]["detail"] == {"why": "because"}
        assert validate_bundle(bundle) == []
        assert sim.metrics.counter("flight.triggers", kind="manual").value == 1

    def test_trigger_captures_ring_tail(self):
        sim = make_sim()
        for i in range(10):
            sim.now = float(i)
            sim.spans.mark("cat", "evt", i=i)
            sim.spans.add("cat", "stage", float(i), float(i) + 0.5)
        flight = FlightRecorder(sim, session_id="s", trace_tail=4)
        bundle = flight.trigger("manual", source="test")
        # Only instants, newest last: the timed spans between them are not
        # evidence rows.
        assert [r["data"] for r in bundle["ring_tail"]] == [
            {"i": 6}, {"i": 7}, {"i": 8}, {"i": 9},
        ]
        assert bundle["ring_tail"][-1]["at_ms"] == 9.0

    def test_trigger_falls_back_to_frame_in_flight(self):
        sim = make_sim()
        log = CausalLog(sim, session_id="s")
        trace = log.frame_trace(5)
        sim.spans.add(
            "app", "intercept", 0.0, 2.0, frame_id=5, trace_id=trace.trace_id,
        )
        flight = FlightRecorder(sim, session_id="s")
        bundle = flight.trigger("manual", source="test")
        assert bundle["trigger"]["trace_id"] == trace.trace_id
        assert bundle["causal_components"] == ["app"]
        assert bundle["causal_trace"] == [{
            "at_ms": 0.0, "end_ms": 2.0, "category": "app",
            "event": "intercept", "track": "main", "frame_id": 5,
            "data": {"trace_id": trace.trace_id},
        }]

    def test_suppression_after_max_bundles(self):
        sim = make_sim()
        flight = FlightRecorder(sim, session_id="s", max_bundles=2)
        assert flight.trigger("a", source="t") is not None
        assert flight.trigger("b", source="t") is not None
        assert flight.trigger("c", source="t") is None
        assert len(flight.bundles) == 2
        assert flight.suppressed == 1
        assert flight.summary()["suppressed"] == 1

    def test_tail_longer_than_the_ring_is_refused(self):
        # The ring cannot testify to a tail longer than itself.
        sim = make_sim()
        sim.spans.capacity = 16
        with pytest.raises(ValueError):
            FlightRecorder(sim, trace_tail=17)
        assert FlightRecorder(sim, trace_tail=16).trace_tail == 16

    def test_invalid_parameters(self):
        sim = make_sim()
        with pytest.raises(ValueError):
            FlightRecorder(sim, trace_tail=0)
        with pytest.raises(ValueError):
            FlightRecorder(sim, max_bundles=0)

    def test_on_violation_freezes(self):
        class FakeViolation:
            invariant = "queue_conservation"
            message = "lost a frame"

        sim = make_sim()
        flight = FlightRecorder(sim, session_id="s")
        bundle = flight.on_violation(FakeViolation())
        assert bundle["trigger"]["kind"] == "invariant_violation"
        assert bundle["trigger"]["source"] == "queue_conservation"

    def test_on_replan_freezes(self):
        sim = make_sim()
        flight = FlightRecorder(sim, session_id="s")
        bundle = flight.on_replan("wifi_remote", "fused_remote",
                                  measured_ms=41.2)
        assert bundle["trigger"]["kind"] == "replan"
        assert bundle["trigger"]["detail"]["from_backend"] == "wifi_remote"
        assert bundle["trigger"]["detail"]["to_backend"] == "fused_remote"


class TestEvidenceSources:
    def test_sources_sampled_at_trigger_time(self):
        sim = make_sim()
        flight = FlightRecorder(sim, session_id="s")
        state = {"n": 1}
        flight.add_source("ledger", lambda: dict(state))
        state["n"] = 2          # mutate before the trigger
        bundle = flight.trigger("manual", source="test")
        assert bundle["sources"]["ledger"] == {"n": 2}
        state["n"] = 3          # mutating after must not change the bundle
        assert bundle["sources"]["ledger"] == {"n": 2}


class TestBundleDigest:
    def test_digest_detects_tampering(self):
        sim = make_sim()
        flight = FlightRecorder(sim, session_id="s")
        bundle = flight.trigger("manual", source="test")
        assert validate_bundle(bundle) == []
        tampered = json.loads(json.dumps(bundle))
        tampered["trigger"]["source"] = "forged"
        assert any(
            "digest" in p for p in validate_bundle(tampered)
        )

    def test_validate_rejects_wrong_schema(self):
        assert validate_bundle({"schema": "nope"})
        assert validate_bundle([]) != []

    def test_same_seed_same_bundle_bytes(self):
        def freeze():
            sim = Simulator(seed=11)
            log = CausalLog(sim, session_id="s")
            trace = log.frame_trace(1)
            sim.spans.mark("cat", "evt", i=1, trace_id=trace.trace_id)
            flight = FlightRecorder(sim, session_id="s")
            return flight.trigger("manual", source="test")

        a, b = freeze(), freeze()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
