"""Observation is inert, as a property over seeds, apps and faults.

``test_observation_is_inert.py`` pins the fact on three fixed seeds of
one game.  Here hypothesis draws the seed, the game, the phone, one or
two service devices and a small fault schedule, and every observer is
armed in turn: telemetry, the flight recorder, the invariant monitor, a
span ring that keeps one row, and a ring that records every mark twice.
Each must reproduce the unarmed session's golden fingerprint, and the
three read-only observers armed together on a traced session must
reproduce the traced session's.

Causal tracing is the designed exception, and it is not compared with
the untraced session here.  Its 8-byte header is real traffic that
takes air time, so the frames that follow are timed differently, and a
frame issued at another instant can carry other commands.  The
fixed-seed test finds the same frames and exactly the header's bytes;
over drawn sessions that fails.  Three sessions where it fails,
identically before and after the span ring became the only event log:
seed 1202, G6 on the LG G5 to the Shield and the Minix, no faults (61
frames untraced, 60 traced); seed 7837, G5 on the Nexus 5 to the
Shield, no faults (53 frames either way, but raw command bytes
1,071,273 and 1,096,767, and uplink +10,397 B, not +424 B); seed 157,
G3 on the LG G5 to the Shield and the Minix, 20% loss at 100-150 ms and
an outage at 414-637 ms (21 frames either way, 144,480 B untraced and
224,657 B traced).

The two ring variants swap the session module's ``Simulator`` for one
whose span ring differs, so no runner grows a parameter for them.  A
plain run draws a few examples; ``-m fuzz`` draws many.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.session as session_module
from repro import GBoosterConfig, run_offload_session
from repro.apps.games import GAMES
from repro.devices.profiles import LG_G5, LG_NEXUS_5, MINIX_NEO_U1, NVIDIA_SHIELD
from repro.faults.schedule import FaultSchedule
from repro.obs.spans import SpanRecorder
from repro.sim.kernel import Simulator
from tests.core.test_golden_fingerprints import _session_fingerprint

SESSION_MS = 1_000.0


class _DoubleMarks(SpanRecorder):
    """A span ring that records every instant mark twice."""

    def mark(self, *args: Any, **kwargs: Any):
        super().mark(*args, **kwargs)
        return super().mark(*args, **kwargs)


def _with_ring(make: Callable[[Simulator], SpanRecorder]):
    def build(*args: Any, **kwargs: Any) -> Simulator:
        sim = Simulator(*args, **kwargs)
        sim.spans = make(sim)
        return sim

    return build


#: the span-ring variants, armed by swapping the session's ``Simulator``
RINGS: Dict[str, Callable[..., Simulator]] = {
    "ring_capacity_1": _with_ring(
        lambda sim: SpanRecorder(clock=lambda: sim.now, capacity=1)
    ),
    "ring_double_marks": _with_ring(
        lambda sim: _DoubleMarks(clock=lambda: sim.now)
    ),
}

#: the config switches of the read-only observers
SWITCHES = ("telemetry", "flight_recorder", "check")


@st.composite
def fault_schedules(draw) -> FaultSchedule:
    """Zero to two faults inside the session, each one kind at random."""
    schedule = FaultSchedule()
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(100, 800))
        span = draw(st.integers(50, 400))
        kind = draw(st.sampled_from(["loss", "outage", "degrade", "crash"]))
        if kind == "loss":
            schedule.loss_burst(
                at, span, loss_probability=draw(st.sampled_from([0.2, 0.5]))
            )
        elif kind == "outage":
            schedule.outage(at, span)
        elif kind == "degrade":
            schedule.degrade_radio(at, span, bandwidth_factor=0.25)
        else:
            schedule.crash(at, rejoin_at_ms=at + span)
    return schedule


@st.composite
def scenarios(draw) -> Dict[str, Any]:
    return dict(
        seed=draw(st.integers(0, 10_000)),
        app=GAMES[draw(st.sampled_from(sorted(GAMES)))],
        user=draw(st.sampled_from([LG_G5, LG_NEXUS_5])),
        services=draw(st.sampled_from(
            [(NVIDIA_SHIELD,), (NVIDIA_SHIELD, MINIX_NEO_U1)]
        )),
        faults=draw(fault_schedules()),
    )


def _run(scenario: Dict[str, Any], **switches: bool):
    return run_offload_session(
        scenario["app"], scenario["user"], list(scenario["services"]),
        config=GBoosterConfig(faults=scenario["faults"] or None, **switches),
        duration_ms=SESSION_MS, seed=scenario["seed"],
    )


def assert_observation_is_inert(scenario: Dict[str, Any], monkeypatch) -> None:
    plain = _run(scenario)
    expected = _session_fingerprint(plain)
    for switch in SWITCHES:
        assert _session_fingerprint(_run(scenario, **{switch: True})) == (
            expected
        ), switch
    for name, build in RINGS.items():
        monkeypatch.setattr(session_module, "Simulator", build)
        try:
            armed = _run(scenario)
        finally:
            monkeypatch.undo()
        assert _session_fingerprint(armed) == expected, name

    # Tracing itself is the designed exception (its header is real
    # traffic), but every read-only observer is inert on a traced run.
    traced = _run(scenario, causal_tracing=True)
    armed = _run(
        scenario, causal_tracing=True, **dict.fromkeys(SWITCHES, True)
    )
    assert _session_fingerprint(armed) == _session_fingerprint(traced)


def test_the_ring_variants_are_armed(monkeypatch):
    """The swapped ``Simulator`` really reaches the session."""
    scenario = dict(
        seed=0, app=GAMES["G3"], user=LG_G5, services=(NVIDIA_SHIELD,),
        faults=FaultSchedule(),
    )
    plain = _run(scenario)
    monkeypatch.setattr(session_module, "Simulator", RINGS["ring_capacity_1"])
    assert len(_run(scenario).engine.sim.spans) == 1
    monkeypatch.setattr(
        session_module, "Simulator", RINGS["ring_double_marks"]
    )
    doubled = _run(scenario).engine.sim.spans
    marks = sum(1 for s in plain.engine.sim.spans.spans if s.instant)
    assert marks > 0
    assert sum(1 for s in doubled.spans if s.instant) == 2 * marks


@pytest.mark.fuzz
def test_observation_is_inert_over_drawn_sessions(request, monkeypatch):
    """Selected with ``-m fuzz`` it draws 1,000 fresh examples; a plain
    run draws the same 20 every time, so tier 1 stays fast and steady."""
    deep = "fuzz" in (request.config.getoption("markexpr") or "")

    @settings(
        max_examples=1000 if deep else 20, deadline=None,
        derandomize=not deep,
    )
    @given(scenario=scenarios())
    def inert(scenario):
        assert_observation_is_inert(scenario, monkeypatch)

    inert()
