"""The span ring is the run's one event log.

Fleet admissions, placements and migrations, and the client's
re-dispatches, are each marked exactly once, and a flight bundle's
evidence tail is the newest marks of the ring.
"""

from collections import Counter

from repro import GBoosterConfig, run_offload_session
from repro.apps.games import GAMES, GTA_SAN_ANDREAS
from repro.devices.profiles import (
    DELL_OPTIPLEX_9010,
    LG_G5,
    LG_NEXUS_5,
    NVIDIA_SHIELD,
)
from repro.experiments.fleet import run_fleet_point
from repro.faults import FaultSchedule
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
    marks = [s for s in result.engine.sim.spans.spans if s.instant]
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
