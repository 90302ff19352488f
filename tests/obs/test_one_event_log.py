"""The span ring is the run's one event log.

Fleet admissions, placements and migrations, and the client's
re-dispatches, are each marked exactly once, and a flight bundle's
evidence tail is the newest marks of the ring.  Causal tracing adds no
row: it puts the frame's trace id on the rows already there, and a
frame's trace and a bundle's ``causal_trace`` read back from the ring.
"""

from collections import Counter

import pytest

from repro import GBoosterConfig, run_offload_session
from repro.apps.games import GAMES, GTA_SAN_ANDREAS, STAR_WARS_KOTOR
from repro.devices.profiles import (
    DELL_OPTIPLEX_9010,
    LG_G5,
    LG_NEXUS_5,
    NVIDIA_SHIELD,
)
from repro.experiments.fleet import run_fleet_point
from repro.faults import FaultSchedule
from repro.obs.causal import derive_trace_id
from repro.sim.kernel import Simulator


def _marks(sim, category):
    return [s for s in sim.spans.by_category(category) if s.instant]


def test_fleet_marks_each_admission_placement_and_migration_once():
    sim = Simulator(seed=0)
    point, _ = run_fleet_point(48, 4, 6_000.0, seed=0, crash=True, sim=sim)
    assert point.queued > 0 and point.migrations > 0  # both paths exercised
    admissions = Counter(m.args["session"] for m in _marks(sim, "fleet.admission"))
    placements = Counter(m.args["session"] for m in _marks(sim, "fleet.placement"))
    assert len(admissions) == point.offered
    assert set(admissions.values()) == {1}
    # A queued session is placed when it leaves the queue: one placement
    # per admitted session, whether it waited or not.
    assert len(placements) == point.admitted
    assert set(placements.values()) == {1}
    outcomes = Counter(m.name for m in _marks(sim, "fleet.admission"))
    assert outcomes["queue"] == point.queued
    assert point.migrations == len(_marks(sim, "fleet.migration"))


def test_each_redispatch_is_marked_once():
    result = run_offload_session(
        GTA_SAN_ANDREAS, LG_G5,
        service_devices=[NVIDIA_SHIELD, DELL_OPTIPLEX_9010],
        config=GBoosterConfig(
            frame_timeout_ms=300.0,
            faults=FaultSchedule().crash(at_ms=1_000.0, node=0),
        ),
        duration_ms=2_500.0, seed=1,
    )
    redispatches = result.engine.sim.spans.by_name("redispatch")
    # A surviving node takes every stranded frame, so each failover is a
    # re-dispatch.
    assert redispatches
    assert len(redispatches) == result.client_stats.failovers


def test_a_flight_bundles_ring_tail_is_the_newest_marks():
    duration_ms = 6_000.0
    result = run_offload_session(
        GAMES["G3"], LG_NEXUS_5, [NVIDIA_SHIELD],
        config=GBoosterConfig(
            telemetry=True, causal_tracing=True, flight_recorder=True,
            faults=FaultSchedule().loss_burst(
                at_ms=0.4 * duration_ms, duration_ms=0.35 * duration_ms,
                loss_probability=0.35,
            ),
        ),
        duration_ms=duration_ms, seed=0,
    )
    flight = result.flight
    assert flight.bundles
    ring = list(result.engine.sim.spans.spans)
    marks = [s for s in ring if s.instant]
    triggers = [
        i for i, m in enumerate(marks)
        if (m.category, m.name) == ("flight", "trigger")
    ]
    assert len(triggers) == len(flight.bundles)
    for bundle, at in zip(flight.bundles, triggers):
        tail = bundle["ring_tail"]
        assert 0 < len(tail) <= flight.trace_tail
        # Each bundle is frozen just before its own trigger mark, so its
        # tail is exactly the marks before that one, newest last.
        expected = marks[max(0, at - flight.trace_tail):at]
        assert [(r["category"], r["event"], r["at_ms"]) for r in tail] == [
            (m.category, m.name, round(m.start_ms, 4)) for m in expected
        ]
        # The causal trace is the trigger frame's rows of the ring as it
        # stood before the trigger mark, in start-time order.
        trace_id = bundle["trigger"]["trace_id"]
        before = [
            s for s in ring[:ring.index(marks[at])]
            if s.args.get("trace_id") == trace_id
        ]
        assert before
        assert [
            (r["category"], r["event"], r["at_ms"], r["end_ms"])
            for r in bundle["causal_trace"]
        ] == [
            (s.category, s.name, round(s.start_ms, 4), round(s.end_ms, 4))
            for s in sorted(before, key=lambda s: s.start_ms)
        ]


def _kotor(seed: int, **switches: bool):
    return run_offload_session(
        STAR_WARS_KOTOR, LG_G5, [NVIDIA_SHIELD],
        config=GBoosterConfig(**switches), duration_ms=2_000.0, seed=seed,
    )


def _shape(span):
    """A row without its times and its trace id: what tracing must keep."""
    return (
        span.category, span.name, span.track, span.frame_id, span.parent,
        span.depth, span.instant,
        tuple(sorted(k for k in span.args if k != "trace_id")),
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_tracing_adds_no_row_only_trace_ids(seed):
    plain = _kotor(seed).engine.sim.spans
    traced = _kotor(seed, causal_tracing=True).engine.sim.spans
    assert not any("trace_id" in s.args for s in plain.spans)
    # The trace header makes every uplink 8 bytes longer, so times may
    # shift; the rows themselves must not change.
    assert Counter(map(_shape, traced.spans)) == Counter(
        map(_shape, plain.spans)
    )
    assert sum(1 for s in traced.spans if "trace_id" in s.args) > 0


def test_every_presented_frame_traces_client_net_and_server_in_order():
    result = _kotor(0, causal_tracing=True)
    spans = result.engine.sim.spans
    presented = result.engine.presented_frames()
    assert presented
    for frame in presented:
        trace_id = derive_trace_id(0, result.causal.session_id, frame.frame_id)
        rows = spans.trace_of(trace_id)
        assert {"client", "net", "server"} <= set(spans.components_of(trace_id))
        starts = [s.start_ms for s in rows]
        assert starts == sorted(starts)
        assert all(s.args["trace_id"] == trace_id for s in rows)
