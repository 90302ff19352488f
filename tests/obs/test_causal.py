"""Causal trace context, the trace stamper, the span ring's trace view,
and deterministic exemplars."""

import json

import pytest

import repro.obs.causal as causal_module
from repro.obs.causal import (
    DEFAULT_EXEMPLARS,
    TRACE_WIRE_BYTES,
    CausalLog,
    ExemplarReservoir,
    TraceContext,
    derive_trace_id,
    trace_args,
)
from repro.obs.spans import SpanRecorder
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


class TestCausalLog:
    def test_stamps_the_frame_in_flight(self):
        sim = Simulator(seed=0)
        log = CausalLog(sim, session_id="s")
        assert log.last_trace is None
        assert trace_args(sim) == {}
        trace = log.frame_trace(1)
        assert log.last_trace == trace
        assert trace == TraceContext.derive(0, "s", 1)

    def test_events_attach_to_stamped_frame(self):
        # A frame's rows carry its trace id; a session-scoped mark takes
        # the id of the frame in flight through ``trace_args``.
        sim = Simulator(seed=0)
        log = CausalLog(sim, session_id="s")
        trace = log.frame_trace(1)
        sim.spans.add("app", "intercept", 0.0, 1.0, trace_id=trace.trace_id)
        sim.spans.mark("switching", "switch", to="wifi", **trace_args(sim))
        sim.spans.mark("radio", "awake")
        assert sim.spans.components_of(trace.trace_id) == [
            "app", "switching",
        ]
        assert [s.name for s in sim.spans.trace_of(trace.trace_id)] == [
            "intercept", "switch",
        ]
        assert sim.spans.trace_of("") == []

    def test_eviction_reconciles_trace_index(self):
        # The trace view reads the bounded ring: a row the ring evicted
        # is gone from its trace.
        sim = Simulator(seed=0)
        sim.spans = SpanRecorder(clock=lambda: sim.now, capacity=2)
        log = CausalLog(sim, session_id="s")
        t1 = log.frame_trace(1)
        sim.spans.mark("client", "a", trace_id=t1.trace_id)
        t2 = log.frame_trace(2)
        sim.spans.mark("client", "b", trace_id=t2.trace_id)
        sim.spans.mark("client", "c", trace_id=t2.trace_id)  # evicts "a"
        assert sim.spans.trace_of(t1.trace_id) == []
        assert [s.name for s in sim.spans.trace_of(t2.trace_id)] == ["b", "c"]
        assert sim.spans.dropped == 1

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
    """One causal-traced session's exemplars + traced rows (picklable)."""
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
        "traced": sum(1 for s in sim.spans.spans if "trace_id" in s.args),
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
    """Past their bounds, what the stamp list and the ring retain must
    not change.

    A list model (drop the oldest stamp and the oldest row with
    ``del [0]``) is driven alongside the stamper and the span ring past
    a capacity of four many times over.
    """

    CAPACITY = 4

    def _drive(self, steps, monkeypatch):
        monkeypatch.setattr(causal_module, "MAX_STAMPS", self.CAPACITY)
        sim = Simulator(seed=3)
        sim.spans = SpanRecorder(
            clock=lambda: sim.now, capacity=self.CAPACITY
        )
        log = CausalLog(sim, session_id="s")
        rows, stamps, traces = [], [], []
        for step in range(steps):
            sim.now = float(step * 5)
            if step % 3 == 1:
                trace = log.frame_trace(step)
                traces.append(trace)
                stamps.append((sim.now, trace.trace_id))
                if len(stamps) > self.CAPACITY:
                    del stamps[0]
            # Mix untraced rows, the frame in flight and the one before it.
            if step % 4 == 0 or not traces:
                extra = {}
            else:
                newest, before = traces[-1], traces[max(0, len(traces) - 2)]
                extra = {"trace_id": (newest if step % 2 else before).trace_id}
            rows.append(sim.spans.mark("net", f"e{step}", step=step, **extra))
            if len(rows) > self.CAPACITY:
                del rows[0]
            yield log, sim.spans, rows, stamps, traces

    def test_retained_events_dropped_witness_and_traces_match(
        self, monkeypatch
    ):
        for step, (log, spans, rows, stamps, traces) in enumerate(
            self._drive(40, monkeypatch)
        ):
            assert list(spans.spans) == rows
            assert spans.dropped == max(0, step + 1 - self.CAPACITY)
            for trace in traces:
                expected = [
                    r for r in rows if r.args.get("trace_id") == trace.trace_id
                ]
                assert spans.trace_of(trace.trace_id) == expected
            for probe in range(-5, 5 * 41, 5):
                older = [tid for at, tid in stamps if at <= probe]
                expected = older[-1] if older else ""
                assert log.witness(float(probe)) == expected
