"""Causal trace context, the causal log, and deterministic exemplars."""

import json
import pickle

import pytest

from repro.obs.causal import (
    DEFAULT_EXEMPLARS,
    TRACE_WIRE_BYTES,
    CausalEvent,
    CausalLog,
    ExemplarReservoir,
    TraceContext,
    derive_trace_id,
)
from repro.sim.kernel import Simulator


class TestTraceContext:
    def test_trace_id_pure_function_of_identity(self):
        assert derive_trace_id(7, "s", 3) == derive_trace_id(7, "s", 3)
        assert derive_trace_id(7, "s", 3) != derive_trace_id(7, "s", 4)
        assert derive_trace_id(7, "s", 3) != derive_trace_id(8, "s", 3)
        assert derive_trace_id(7, "s", 3) != derive_trace_id(7, "t", 3)

    def test_trace_id_shard_and_worker_invariant(self):
        # The id depends on (seed, session, frame) only — never on the
        # shard the session landed on or which worker process ran it.
        a = Simulator(seed=5, shard_id=0)
        b = Simulator(seed=5, shard_id=3)
        ta = CausalLog(a, session_id="s").frame_trace(12)
        tb = CausalLog(b, session_id="s").frame_trace(12)
        assert ta.trace_id == tb.trace_id

    def test_wire_round_trip(self):
        trace = TraceContext.derive(0, "session", 42)
        wire = trace.to_wire()
        assert len(wire) == TRACE_WIRE_BYTES
        back = TraceContext.from_wire(wire, session="session", frame=42)
        assert back.trace_id == trace.trace_id

    def test_from_wire_rejects_short_header(self):
        with pytest.raises(ValueError):
            TraceContext.from_wire(b"\x00" * (TRACE_WIRE_BYTES - 1))


class TestCausalEvent:
    def _event(self):
        sim = Simulator(seed=0)
        log = CausalLog(sim, session_id="s")
        events = []

        def send():
            trace = log.frame_trace(3)
            events.append(
                log.event("net", "send", trace=trace, size=40, kind="frame")
            )

        sim.call_later(12.345678, send)
        sim.run()
        return events[0]

    def test_fields_in_record_order(self):
        assert CausalEvent._fields == (
            "at_ms", "component", "name", "trace_id", "data",
        )
        event = self._event()
        assert tuple(event) == (
            12.345678, "net", "send", event.trace_id,
            {"size": 40, "kind": "frame"},
        )

    def test_as_dict_rounds_time_and_sorts_data(self):
        event = self._event()
        assert event.as_dict() == {
            "at_ms": 12.3457,
            "component": "net",
            "name": "send",
            "trace_id": event.trace_id,
            "data": {"kind": "frame", "size": 40},
        }
        assert list(event.as_dict()["data"]) == ["kind", "size"]

    def test_pickle_round_trip(self):
        event = self._event()
        back = pickle.loads(pickle.dumps(event))
        assert type(back) is CausalEvent
        assert back == event
        assert back.as_dict() == event.as_dict()

    def test_fields_cannot_be_reassigned(self):
        event = self._event()
        with pytest.raises(AttributeError):
            event.name = "recv"
        with pytest.raises(AttributeError):
            event.extra = 1


class TestCausalLog:
    def test_events_attach_to_stamped_frame(self):
        sim = Simulator(seed=0)
        log = CausalLog(sim, session_id="s")
        trace = log.frame_trace(1)
        log.event("client", "intercept", trace=trace, frame=1)
        # trace=None attaches to the frame in flight.
        log.event("switching", "radio_up", to="wifi")
        assert log.components_of(trace.trace_id) == ["client", "switching"]
        assert [e.name for e in log.trace_of(trace.trace_id)] == [
            "intercept", "radio_up",
        ]

    def test_eviction_reconciles_trace_index(self):
        sim = Simulator(seed=0)
        log = CausalLog(sim, session_id="s", capacity=2)
        t1 = log.frame_trace(1)
        log.event("client", "a", trace=t1)
        t2 = log.frame_trace(2)
        log.event("client", "b", trace=t2)
        log.event("client", "c", trace=t2)   # evicts t1's only event
        assert log.trace_of(t1.trace_id) == []
        assert t1.trace_id not in log.trace_ids()
        assert log.dropped == 1

    def test_witness_returns_last_stamp_before_cutoff(self):
        sim = Simulator(seed=0)
        log = CausalLog(sim, session_id="s")
        assert log.witness(100.0) == ""
        sim.now = 10.0
        t1 = log.frame_trace(1)
        sim.now = 50.0
        t2 = log.frame_trace(2)
        assert log.witness(5.0) == ""
        assert log.witness(10.0) == t1.trace_id
        assert log.witness(49.0) == t1.trace_id
        assert log.witness(1000.0) == t2.trace_id

    def test_summary_counts_by_component(self):
        sim = Simulator(seed=0)
        log = CausalLog(sim, session_id="s")
        t = log.frame_trace(0)
        log.event("client", "a", trace=t)
        log.event("net", "b", trace=t)
        log.event("net", "c", trace=t)
        summary = log.summary()
        assert summary["events"] == 3
        assert summary["traces"] == 1
        assert summary["by_component"] == {"client": 1, "net": 2}


class TestExemplarReservoir:
    def test_keeps_largest_values(self):
        r = ExemplarReservoir(bound=3)
        for v in (1.0, 9.0, 5.0, 7.0, 2.0):
            r.offer(v, f"t{v}")
        assert [e["value"] for e in r.exemplars()] == [9.0, 7.0, 5.0]

    def test_ties_keep_the_incumbent(self):
        r = ExemplarReservoir(bound=1)
        r.offer(5.0, "first")
        r.offer(5.0, "second")
        assert r.trace_ids() == ["first"]

    def test_untraced_observations_ignored(self):
        r = ExemplarReservoir(bound=2)
        r.offer(10.0, "")
        assert len(r) == 0

    def test_bound_never_exceeded_under_adversarial_order(self):
        # Property: for any insertion order — ascending, descending,
        # sawtooth, heavy duplicates — the reservoir never exceeds its
        # bound and retention is a pure function of the sequence.
        sequences = [
            [float(i) for i in range(100)],
            [float(100 - i) for i in range(100)],
            [float(i % 7) for i in range(100)],
            [5.0] * 100,
            [float((i * 37) % 89) for i in range(200)],
        ]
        for bound in (1, 3, 8):
            for seq in sequences:
                r1 = ExemplarReservoir(bound=bound)
                r2 = ExemplarReservoir(bound=bound)
                for i, v in enumerate(seq):
                    r1.offer(v, f"t{i}")
                    assert len(r1) <= bound
                    r2.offer(v, f"t{i}")
                assert r1.exemplars() == r2.exemplars()
                # The retained values are exactly the top-k of the stream.
                kept = [e["value"] for e in r1.exemplars()]
                assert kept == sorted(seq, reverse=True)[: len(kept)]

    def test_default_bound(self):
        r = ExemplarReservoir()
        for i in range(50):
            r.offer(float(i), f"t{i}")
        assert len(r) == DEFAULT_EXEMPLARS


def _traced_session(duration_ms, seed):
    """One causal-traced session's exemplars + causal summary (picklable)."""
    from repro.apps.games import GAMES
    from repro.core.config import GBoosterConfig
    from repro.core.session import run_offload_session
    from repro.devices.profiles import LG_NEXUS_5, NVIDIA_SHIELD

    config = GBoosterConfig(
        telemetry=True, deterministic_content=True, causal_tracing=True,
    )
    result = run_offload_session(
        GAMES["G3"], LG_NEXUS_5, [NVIDIA_SHIELD],
        config=config, duration_ms=duration_ms, seed=seed,
    )
    sim = result.engine.sim
    hist = sim.metrics.histogram("client.frame_response_ms")
    return {
        "exemplars": hist.exemplar_summary(),
        "causal": result.causal.summary(),
    }


class TestSessionExemplarDeterminism:
    """Worker-count byte-identity for trace-bearing artifacts."""

    def test_exemplars_byte_identical_across_worker_counts(self):
        from repro.sim.shard import run_parallel_jobs

        jobs = [(_traced_session, (2_000.0, s)) for s in (0, 1)]
        dumps = []
        for workers in (1, 2, 4):
            results = run_parallel_jobs(jobs, workers=workers)
            dumps.append(json.dumps(results, sort_keys=True))
        assert dumps[0] == dumps[1] == dumps[2]
        first = json.loads(dumps[0])
        assert first[0]["exemplars"], "traced session produced no exemplars"


class TestCausalLogEvictionAtCapacity:
    """The ring evicts in O(1); what it retains must not change.

    A list-backed model of the log (evict with ``pop(0)``, drop the
    oldest stamp with ``del [0]``) is driven alongside the real log past
    its capacity many times over.
    """

    CAPACITY = 4

    def _drive(self, steps):
        sim = Simulator(seed=3)
        log = CausalLog(sim, session_id="s", capacity=self.CAPACITY)
        events, stamps, dropped = [], [], 0
        traces = []
        for step in range(steps):
            sim.now = float(step * 5)
            if step % 3 == 1:
                trace = log.frame_trace(step)
                traces.append(trace)
                stamps.append((sim.now, trace.trace_id))
                if len(stamps) > self.CAPACITY:
                    del stamps[0]
            # Mix the frame in flight (trace=None; no trace at all before
            # the first stamp), the newest trace and the one before it.
            if step % 4 == 0 or not traces:
                trace = None
            else:
                newest, before = traces[-1], traces[max(0, len(traces) - 2)]
                trace = newest if step % 2 else before
            rec = log.event("net", f"e{step}", trace=trace, step=step)
            events.append(rec)
            if len(events) > self.CAPACITY:
                events.pop(0)
                dropped += 1
            yield log, events, stamps, dropped, traces

    def test_retained_events_dropped_witness_and_traces_match(self):
        for log, events, stamps, dropped, traces in self._drive(40):
            assert len(log) == len(events)
            assert log.dropped == dropped
            assert log.summary()["events"] == len(events)
            for trace in traces:
                expected = [e for e in events if e.trace_id == trace.trace_id]
                assert log.trace_of(trace.trace_id) == expected
            traced = {e.trace_id for e in events} - {""}
            assert log.trace_ids() == sorted(traced)
            for probe in range(-5, 5 * 41, 5):
                older = [tid for at, tid in stamps if at <= probe]
                expected = older[-1] if older else ""
                assert log.witness(float(probe)) == expected
