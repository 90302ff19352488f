"""The fleet runner launches arrivals as callbacks: the coroutine loops as oracle.

``run_fleet_point`` and ``run_capacity_point`` each used to spawn an
arrival coroutine after bootstrap: a gap loop (submit, sleep one gap)
and an offset loop (sleep to the next offset unless it is the current
one, submit).  :class:`~repro.fleet.runner.FleetRun` now chains one
callback per arrival instant.  This module keeps both loops, verbatim,
as references and checks that the runner replays them: the same
controller report, span list, per-session frame digests and response
times — with float times, and on a whole-ms grid where arrivals share
instants with each other, with the registry monitor and the control
sweep, and with a crash.  The last tests pin the tie orders that
changed.
"""

from __future__ import annotations

from typing import Generator, List

from hypothesis import given, settings, strategies as st

from repro.apps.games import GAMES
from repro.experiments.fleet import launch_wave, make_fleet_pool
from repro.faults.schedule import FaultSchedule
from repro.fleet import (
    Arrival,
    FleetConfig,
    FleetController,
    FleetRun,
    SessionRequest,
)
from repro.sim.kernel import Simulator

APPS = list(GAMES.values())


# -- the references: the arrival loops the runner replaced -----------------


def gap_loop(sim, controller, apps, n_sessions, gap_ms) -> Generator:
    """``run_fleet_point``'s launch wave."""
    for i in range(n_sessions):
        request = SessionRequest(
            session_id=f"s{i:03d}",
            app=apps[i % len(apps)],
            arrival_ms=sim.now,
        )
        controller.submit(request)
        yield gap_ms


def offset_loop(sim, controller, apps, indices, offsets) -> Generator:
    """``run_capacity_point``'s arrival schedule."""
    previous = 0.0
    for i, offset in enumerate(offsets):
        if offset > previous:
            yield offset - previous
        previous = offset
        controller.submit(
            SessionRequest(
                session_id=f"s{i:03d}",
                app=apps[indices[i]],
                arrival_ms=sim.now,
            )
        )


def offset_wave(apps, indices, offsets) -> List[Arrival]:
    """The arrivals ``run_capacity_point`` hands the runner."""
    return [
        Arrival(offset - previous, f"s{i:03d}", apps[indices[i]])
        for i, (previous, offset) in enumerate(zip([0.0, *offsets], offsets))
    ]


# -- one scenario, run both ways -------------------------------------------


def config_of(scenario) -> FleetConfig:
    faults = None
    if scenario["crash_at"] is not None:
        faults = FaultSchedule().crash(
            at_ms=scenario["crash_at"], node=0,
            rejoin_at_ms=scenario["crash_at"] + 1_500.0,
        )
    return FleetConfig(
        serve_rate_hz=scenario["rate_hz"],
        pipeline_depth=scenario["depth"],
        check=scenario["check"],
        faults=faults,
    )


def bootstrap_ms(scenario) -> float:
    """When the scenario's controller finishes bootstrapping."""
    sim = Simulator(seed=scenario["seed"])
    controller = FleetController(
        sim, make_fleet_pool(scenario["devices"]), config_of(scenario)
    )
    sim.run_until_event(controller.bootstrapped, limit=60_000.0)
    return sim.now


def outcome(sim, controller, report):
    sessions = sorted(
        controller.finished + list(controller.active.values()),
        key=lambda s: s.session_id,
    )
    return {
        "report": report,
        "spans": [tuple(span) for span in sim.spans.spans],
        "sessions": [
            (s.session_id, s.request.arrival_ms, s.frame_digest(),
             s.response_times_ms)
            for s in sessions
        ],
        "violations": (
            len(controller.monitor.violations)
            if controller.monitor is not None else 0
        ),
    }


def run_reference(scenario):
    """The old runners: bootstrap, spawn the loop, run to the horizon."""
    sim = Simulator(seed=scenario["seed"])
    controller = FleetController(
        sim, make_fleet_pool(scenario["devices"]), config_of(scenario)
    )
    controller.set_session_duration(scenario["duration_ms"])
    sim.run_until_event(controller.bootstrapped, limit=60_000.0)
    n = len(scenario["apps"])
    if scenario["offsets"] is None:
        loop = gap_loop(sim, controller, APPS, n, scenario["spread_ms"] / n)
    else:
        loop = offset_loop(
            sim, controller, APPS, scenario["apps"], scenario["offsets"]
        )
    sim.spawn(loop, name="fleet.arrivals")
    sim.run(until=sim.now + spread_of(scenario)
            + 2.0 * scenario["duration_ms"] + 5_000.0)
    if controller.monitor is not None:
        controller.monitor.finalize()
    return outcome(sim, controller, controller.report())


def run_runner(scenario):
    n = len(scenario["apps"])
    if scenario["offsets"] is None:
        arrivals = launch_wave(
            range(n), APPS, gap_ms=scenario["spread_ms"] / n
        )
    else:
        arrivals = offset_wave(APPS, scenario["apps"], scenario["offsets"])
    run = FleetRun(
        Simulator(seed=scenario["seed"]),
        make_fleet_pool(scenario["devices"]),
        config_of(scenario),
        scenario["duration_ms"],
        arrivals,
        spread_ms=spread_of(scenario),
    )
    report = run.run()
    return outcome(run.sim, run.controller, report)


def spread_of(scenario) -> float:
    if scenario["offsets"] is None:
        return scenario["spread_ms"]
    return scenario["offsets"][-1]


def gap_apps(n: int) -> List[int]:
    """The app indices of a gap wave: the Table II cycle."""
    return [i % len(APPS) for i in range(n)]


@st.composite
def scenarios(draw, ties: bool):
    """Fleets of 1–3 devices and up to 8 sessions, as a gap wave or as
    sorted offsets with repeated values (same-instant submits).

    With ``ties`` every arrival, and the crash, lands on a whole ms (the
    offsets are whole-ms instants minus the bootstrap time, which the
    loop and the runner both add back), a multiple of 10 ms: the grid of
    the 250 ms heartbeat monitor, the 500 ms control sweep and the 10 or
    20 ms issue periods.  A gap wave starts at the bootstrap instant,
    so there its whole-ms gaps tie arrivals with session ticks and the
    heartbeats of the device registered at that instant.
    """
    n = draw(st.integers(1, 8))
    scenario = {
        "seed": draw(st.integers(0, 2**16)),
        "devices": draw(st.integers(1, 3)),
        "duration_ms": draw(st.sampled_from([300.0, 700.0])),
        "rate_hz": draw(st.sampled_from([50.0, 100.0])),
        "depth": draw(st.integers(1, 3)),
        "check": draw(st.booleans()),
        "crash_at": None,
        "offsets": None,
        "spread_ms": 0.0,
        "apps": gap_apps(n),
    }
    # A crash needs a second device: with every device down, ``submit``
    # raises instead of queueing (in the loops and the runner alike).
    if scenario["devices"] > 1 and draw(st.booleans()):
        scenario["crash_at"] = (
            float(draw(st.integers(5, 60)) * 10) if ties
            else draw(st.floats(50.0, 600.0))
        )
    if draw(st.booleans()):
        if ties:
            gap = float(draw(st.sampled_from([10, 20, 125, 250])))
        else:
            gap = draw(st.floats(0.5, 300.0))
        scenario["spread_ms"] = gap * n
    else:
        if ties:
            boot = bootstrap_ms(scenario)
            instants = draw(st.lists(st.integers(25, 60), min_size=n,
                                     max_size=n))
            offsets = [k * 10.0 - boot for k in sorted(instants)]
        else:
            offsets = sorted(draw(st.lists(
                st.floats(0.0, 600.0), min_size=n, max_size=n)))
            # repeat some offsets: same-instant submits
            offsets = [offsets[i // 2 * 2] for i in range(n)]
        scenario["offsets"] = offsets
        scenario["apps"] = draw(st.lists(
            st.integers(0, len(APPS) - 1), min_size=n, max_size=n))
    return scenario


class TestRunnerReplaysTheLoops:
    @settings(max_examples=60, deadline=None)
    @given(scenario=scenarios(ties=False))
    def test_same_report_spans_and_sessions(self, scenario):
        assert run_runner(scenario) == run_reference(scenario)

    @settings(max_examples=60, deadline=None)
    @given(scenario=scenarios(ties=True))
    def test_same_under_whole_ms_ties(self, scenario):
        assert run_runner(scenario) == run_reference(scenario)

    def test_the_tie_grid_is_not_vacuous(self):
        """Offsets on the grid put arrivals at the very instants of the
        monitor and the control sweep, several at once, and of a crash."""
        scenario = {
            "seed": 3, "devices": 2, "duration_ms": 2_000.0,
            "rate_hz": 50.0, "depth": 2, "check": True, "crash_at": 500.0,
            "spread_ms": 0.0,
            "apps": [0, 3, 5, 1, 2], "offsets": None,
        }
        boot = bootstrap_ms(scenario)
        scenario["offsets"] = [
            t - boot for t in (250.0, 250.0, 500.0, 500.0, 510.0)
        ]
        result = run_runner(scenario)
        assert result == run_reference(scenario)
        arrivals = [s[1] for s in result["sessions"]]
        assert arrivals == [250.0, 250.0, 500.0, 500.0, 510.0]
        assert result["report"]["migrations"]["crash"] >= 1


# -- the tie orders that changed --------------------------------------------


def submit_log(run: FleetRun, log: list) -> None:
    submit = run.controller.submit

    def logged(request):
        log.append(("submit", request.session_id))
        return submit(request)

    run.controller.submit = logged


class TestChangedTieRules:
    """Arrival orders that differ from the loops, with the reason."""

    def test_same_instant_arrivals_submit_in_one_callback(self):
        """A gap wave with no spread (gap 0): the gap loop slept 0 ms
        between submits, so what a submit queued for that instant (the
        admitted session's first frame, its watcher) ran before the next
        submit.  The runner submits every arrival due at an instant in
        one callback, as the offset loop did for repeated offsets."""
        scenario = {
            "seed": 0, "devices": 2, "duration_ms": 300.0, "rate_hz": 50.0,
            "depth": 1, "check": False, "crash_at": None, "spread_ms": 0.0,
            "apps": gap_apps(3), "offsets": None,
        }
        sim = Simulator(seed=0)
        run = FleetRun(
            sim, make_fleet_pool(2), config_of(scenario), 300.0,
            launch_wave(range(3), APPS, gap_ms=0.0),
        )
        log: list = []
        submit_log(run, log)
        steps: List[int] = []
        sim.call_later(0.0, lambda: steps.append(len(log)))
        sim.run(until=sim.now)
        # The probe queued after the launch ran after all three submits.
        assert steps == [3]
        reference = run_reference(scenario)
        assert run_runner(scenario) != reference

    def anchored_order(self, anchored_upfront: bool) -> list:
        sim = Simulator(seed=0)
        epoch = 1_000.0
        arrivals = [Arrival(10.0, "s000", APPS[0]),
                    Arrival(20.0, "s001", APPS[1])]
        run = FleetRun(
            sim, make_fleet_pool(2), FleetConfig(), 300.0,
            [] if anchored_upfront else arrivals, epoch_ms=epoch,
        )
        log: list = []
        submit_log(run, log)
        if anchored_upfront:
            # The old shard worker queued every arrival at its epoch slot
            # at once, right after bootstrap.
            for after_ms, sid, app in arrivals:
                sim.call_at(
                    epoch + after_ms,
                    lambda sid=sid, app=app: run.controller.submit(
                        SessionRequest(sid, app, arrival_ms=sim.now)),
                )
        # Queued before s000 arrives, for the instant of s001.
        sim.call_at(epoch + 20.0, lambda: log.append(("entry",)))
        sim.run(until=epoch + 50.0)
        return log

    def test_an_anchored_arrival_queues_when_the_previous_one_fires(self):
        """In an epoch-anchored wave (a shard's arrival-curve offsets),
        each arrival is queued when the one before it fires, not all at
        once after bootstrap, so an entry queued in between for the same
        instant now runs first."""
        assert self.anchored_order(False) == [
            ("submit", "s000"), ("entry",), ("submit", "s001")]
        assert self.anchored_order(True) == [
            ("submit", "s000"), ("submit", "s001"), ("entry",)]


# -- the runner's own contract ------------------------------------------------


class TestFleetRun:
    def test_horizon_is_wave_start_spread_two_sessions_and_slack(self):
        run = FleetRun(
            Simulator(seed=0), make_fleet_pool(2), FleetConfig(), 1_000.0,
            launch_wave(range(2), APPS, gap_ms=50.0), spread_ms=100.0,
        )
        assert run.wave_start_ms == run.sim.now
        assert run.horizon_ms == run.sim.now + 100.0 + 2_000.0 + 5_000.0
        run.run()
        assert run.sim.now == run.horizon_ms
        assert run.arrivals_done

    def test_an_explicit_horizon_wins(self):
        run = FleetRun(
            Simulator(seed=0), make_fleet_pool(2), FleetConfig(), 1_000.0,
            launch_wave(range(2), APPS, gap_ms=50.0), horizon_ms=4_000.0,
        )
        run.run()
        assert run.sim.now == 4_000.0

    def test_an_anchored_wave_starts_at_the_epoch(self):
        sim = Simulator(seed=0)
        run = FleetRun(
            sim, make_fleet_pool(2), FleetConfig(), 1_000.0,
            [Arrival(0.1, "s000", APPS[0]), Arrival(0.3, "s001", APPS[1])],
            spread_ms=0.3, epoch_ms=2_000.0,
        )
        assert run.horizon_ms == 2_000.0 + 0.3 + 2_000.0 + 5_000.0
        run.run()
        sessions = sorted(run.controller.finished,
                          key=lambda s: s.session_id)
        # The literal epoch + offset, not an accumulation of deltas.
        assert [s.request.arrival_ms for s in sessions] == [
            2_000.0 + 0.1, 2_000.0 + 0.3]

    def test_an_empty_wave_is_done_at_the_wave_start(self):
        run = FleetRun(
            Simulator(seed=0), make_fleet_pool(1), FleetConfig(), 1_000.0,
            [],
        )
        assert not run.arrivals_done
        run.run()
        assert run.arrivals_done
        assert run.controller.report()["admission"]["offered"] == 0
