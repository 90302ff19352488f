"""Fleet controller: bootstrap, admission wiring, migration, reporting."""

import pytest

from repro.apps.games import GAMES, MODERN_COMBAT
from repro.faults import FaultSchedule
from repro.fleet import (
    Arrival,
    FleetConfig,
    FleetController,
    FleetRun,
    SessionRequest,
)
from repro.experiments.fleet import make_fleet_pool


def submit_wave(sim, controller, n, duration_ms=3_000.0):
    controller.set_session_duration(duration_ms)
    apps = list(GAMES.values())
    outcomes = []
    for i in range(n):
        outcomes.append(controller.submit(SessionRequest(
            session_id=f"s{i:03d}", app=apps[i % len(apps)],
            arrival_ms=sim.now,
        )))
    return outcomes


class TestBootstrap:
    def test_discovery_populates_the_registry(self, boot_controller):
        sim, controller = boot_controller(n_devices=4)
        assert len(controller.registry.devices) == 4
        assert controller.up_capacity_mp_per_ms > 0
        # RTTs were measured by the probe round, not assumed.
        assert all(r > 0 for r in controller.rtt_ms.values())

    def test_duplicate_pool_names_rejected(self, sim):
        pool = make_fleet_pool(2)
        with pytest.raises(ValueError):
            FleetController(sim, [pool[0], pool[0]])

    def test_empty_pool_rejected(self, sim):
        with pytest.raises(ValueError):
            FleetController(sim, [])


class TestRejectedInputs:
    """The controller refuses a session duration the session runners
    refuse, and a fleet run with one stops before its kernel runs."""

    BAD = [0.0, -1.0, float("nan"), float("inf")]

    @pytest.mark.parametrize("duration_ms", BAD)
    def test_bad_session_duration(self, sim, duration_ms):
        controller = FleetController(sim, make_fleet_pool(2))
        controller.set_session_duration(2_000.0)
        with pytest.raises(ValueError, match="duration_ms"):
            controller.set_session_duration(duration_ms)
        assert controller._session_duration_ms == 2_000.0

    @pytest.mark.parametrize("duration_ms", BAD)
    def test_a_fleet_run_refuses_it_before_running(self, sim, duration_ms):
        with pytest.raises(ValueError, match="duration_ms"):
            FleetRun(sim, make_fleet_pool(2), FleetConfig(), duration_ms, [])
        assert sim.now == 0.0


class TestServing:
    def test_sessions_complete_with_zero_loss(self, boot_controller):
        sim, controller = boot_controller()
        submit_wave(sim, controller, 8)
        sim.run(until=sim.now + 10_000.0)
        assert len(controller.finished) == 8
        assert all(s.frames_lost == 0 for s in controller.finished)
        report = controller.report()
        assert report["sessions"]["peak_concurrency"] == 8
        assert sum(t["frames_lost"] for t in report["tiers"].values()) == 0

    def test_committed_demand_released_at_session_end(self, boot_controller):
        sim, controller = boot_controller()
        submit_wave(sim, controller, 4)
        assert controller.total_committed_mp_per_ms > 0
        sim.run(until=sim.now + 10_000.0)
        assert controller.total_committed_mp_per_ms == pytest.approx(0.0)

    def test_queued_sessions_start_when_capacity_frees(self, boot_controller):
        config = FleetConfig(admission_oversubscription=0.5)
        sim, controller = boot_controller(n_devices=2, config=config)
        outcomes = submit_wave(sim, controller, 6, duration_ms=1_500.0)
        assert "queue" in outcomes
        sim.run(until=sim.now + 20_000.0)
        assert len(controller.finished) == 6
        assert controller.admission.stats.wait_times_ms


class TestCrashMigration:
    def crash_config(self, at_ms=2_000.0, rejoin_at_ms=None):
        return FleetConfig(
            faults=FaultSchedule().crash(at_ms=at_ms, node=0,
                                         rejoin_at_ms=rejoin_at_ms),
        )

    def test_crash_migrates_sessions_with_zero_loss(self, boot_controller):
        sim, controller = boot_controller(
            config=self.crash_config(rejoin_at_ms=4_000.0)
        )
        submit_wave(sim, controller, 8, duration_ms=5_000.0)
        sim.run(until=sim.now + 15_000.0)
        assert len(controller.finished) == 8
        assert all(s.frames_lost == 0 for s in controller.finished)
        assert controller.crash_migrations >= 1
        crashed = controller.pool[0].name
        assert controller.registry.devices[crashed].losses == 1

    def test_migrated_sessions_replay_state_on_target(self, boot_controller):
        sim, controller = boot_controller(config=self.crash_config())
        submit_wave(sim, controller, 8, duration_ms=5_000.0)
        sim.run(until=sim.now + 15_000.0)
        replays = sum(n.stats.state_replays for n in
                      controller.nodes.values())
        assert replays == controller.migrations
        crashed = controller.pool[0].name
        assert controller.nodes[crashed].stats.state_replays == 0

    def test_rejoined_device_serves_again(self, boot_controller):
        sim, controller = boot_controller(
            config=self.crash_config(at_ms=2_000.0, rejoin_at_ms=4_000.0)
        )
        crashed = controller.pool[0].name
        submit_wave(sim, controller, 8, duration_ms=3_000.0)
        sim.run(until=sim.now + 6_000.0)       # past rejoin + heartbeat
        assert controller.registry.devices[crashed].state == "up"
        before = controller.nodes[crashed].stats.frames_served
        submit_wave(sim, controller, 8, duration_ms=2_000.0)
        sim.run(until=sim.now + 8_000.0)
        assert controller.nodes[crashed].stats.frames_served > before

    def test_arrival_with_every_node_down_waits_for_a_rejoin(self, sim):
        """One device, crashed at 50 ms: at 100 ms the registry still
        counts it up, so admission sees capacity, but no node is live to
        place on.  The session waits in the queue, counted once, and
        starts when the device rejoins at 1.5 s."""
        run = FleetRun(
            sim, make_fleet_pool(1),
            self.crash_config(at_ms=50.0, rejoin_at_ms=1_500.0),
            1_000.0, [Arrival(100.0, "s000", MODERN_COMBAT)],
            epoch_ms=0.0,
        )
        report = run.run()
        stats = run.controller.admission.stats
        assert (stats.offered, stats.admitted, stats.queued,
                stats.dequeued, stats.rejected) == (1, 1, 1, 1, 0)
        assert stats.wait_times_ms[0] >= 1_400.0
        assert report["sessions"]["finished"] == 1
        tiers = report["tiers"].values()
        assert sum(t["frames"] for t in tiers) > 0
        assert sum(t["frames_lost"] for t in tiers) == 0

    def test_sessions_on_a_dark_pool_resume_when_it_rejoins(self, sim):
        """Sessions homed on the only device when it crashes have nowhere
        to migrate: they stay homed and committed there, and their
        stranded frames wait on the node, which serves them when it
        rejoins."""
        run = FleetRun(
            sim, make_fleet_pool(1),
            self.crash_config(at_ms=50.0, rejoin_at_ms=1_500.0),
            3_000.0, [Arrival(5.0, f"s{i}", MODERN_COMBAT) for i in range(3)],
        )
        controller = run.controller
        name = controller.pool[0].name
        sim.run(until=1_800.0)             # declared lost, then rejoined
        assert controller.registry.devices[name].losses == 1
        homed = controller.homed[name].values()
        assert len(homed) == 3
        assert controller.committed_mp_per_ms[name] == pytest.approx(
            sum(s.demand_mp_per_ms for s in homed)
        )
        report = run.run()
        assert report["sessions"]["finished"] == 3
        assert report["migrations"]["total"] == 0
        assert sum(t["frames_lost"] for t in report["tiers"].values()) == 0

    def test_non_crash_faults_rejected_at_fleet_level(self, sim):
        config = FleetConfig(
            faults=FaultSchedule().outage(at_ms=1_000.0, duration_ms=500.0)
        )
        with pytest.raises(ValueError):
            FleetController(sim, make_fleet_pool(2), config)

    def test_crash_on_out_of_range_node_rejected(self, sim):
        config = FleetConfig(faults=FaultSchedule().crash(at_ms=1.0, node=9))
        with pytest.raises(ValueError):
            FleetController(sim, make_fleet_pool(2), config)


class TestDeterminism:
    def run_report(self, boot_controller, seed):
        config = FleetConfig(
            faults=FaultSchedule().crash(at_ms=2_000.0, node=1,
                                         rejoin_at_ms=4_000.0)
        )
        sim, controller = boot_controller(seed=seed, config=config)
        submit_wave(sim, controller, 12, duration_ms=4_000.0)
        sim.run(until=sim.now + 12_000.0)
        return controller.report()

    def test_same_seed_same_digest(self, boot_controller):
        assert (self.run_report(boot_controller, 5)["digest"]
                == self.run_report(boot_controller, 5)["digest"])

    def test_different_seed_different_digest(self, boot_controller):
        # Discovery backoffs shift RTTs, so reports must differ.
        assert (self.run_report(boot_controller, 5)["digest"]
                != self.run_report(boot_controller, 6)["digest"])


class TestPlannerHooks:
    def test_heartbeats_advertise_served_titles(self, boot_controller):
        sim, controller = boot_controller(config=FleetConfig(planner=True))
        controller.set_session_duration(6_000.0)
        app = GAMES["G1"]
        for i in range(3):
            controller.submit(SessionRequest(
                session_id=f"s{i:03d}", app=app, arrival_ms=sim.now,
            ))
        # Sample mid-run: heartbeats need a beat or two to pick the
        # sessions up, and the groups empty again once sessions finish.
        sim.run(until=sim.now + 3_000.0)
        groups = controller.colocation_groups()
        assert groups.get(app.name, 0) >= 1

    def test_planner_off_means_no_titles_in_heartbeats(self, boot_controller):
        sim, controller = boot_controller()
        controller.set_session_duration(6_000.0)
        controller.submit(SessionRequest(
            session_id="s000", app=GAMES["G1"], arrival_ms=sim.now,
        ))
        sim.run(until=sim.now + 3_000.0)
        assert controller.colocation_groups() == {}

    def test_plan_bias_covers_every_up_node(self, boot_controller):
        sim, controller = boot_controller(config=FleetConfig(planner=True))
        controller.set_session_duration(3_000.0)
        assert controller.submit(SessionRequest(
            session_id="s000", app=GAMES["G1"], arrival_ms=sim.now,
        )) == "admit"
        session = controller.active["s000"]
        bias = controller._plan_bias_ms(session)
        assert bias is not None
        up = {d.spec.name for d in controller.registry.up_devices()}
        assert set(bias) == up
        assert all(v > 0 for v in bias.values())

    def test_plan_bias_disabled_without_planner(self, boot_controller):
        sim, controller = boot_controller()
        controller.set_session_duration(3_000.0)
        controller.submit(SessionRequest(
            session_id="s000", app=GAMES["G1"], arrival_ms=sim.now,
        ))
        session = controller.active["s000"]
        assert controller._plan_bias_ms(session) is None

    def test_planner_fleet_still_loses_no_frames(self, boot_controller):
        sim, controller = boot_controller(config=FleetConfig(planner=True))
        submit_wave(sim, controller, 6)
        sim.run(until=25_000.0)
        report = controller.report()
        assert report["sessions"]["finished"] == 6
        assert all(
            t["frames_lost"] == 0 for t in report["tiers"].values()
        )


def scan_homed(controller, node_name):
    """The index's reference: every active session homed on the node,
    found by scanning ``active``, in session-id order."""
    return sorted(
        (
            s for s in controller.active.values()
            if s.node is not None and s.node.name == node_name
        ),
        key=lambda s: s.session_id,
    )


class TestHomedIndex:
    @pytest.mark.parametrize("planner", [False, True])
    def test_probe_matches_scan_at_every_heartbeat(self, boot_controller,
                                                   planner):
        config = FleetConfig(
            planner=planner,
            faults=FaultSchedule().crash(at_ms=2_000.0, node=0,
                                         rejoin_at_ms=4_000.0),
        )
        sim, controller = boot_controller(config=config)
        assert len(controller.registry.devices) == len(controller.pool)
        checked = []

        def checking(dev, probe):
            def wrapped():
                answer = probe()
                if answer is None:
                    return None
                homed = scan_homed(controller, dev.name)
                assert answer[1] == len(homed)
                if planner:
                    assert answer[3] == tuple(s.app.name for s in homed)
                checked.append(answer[1])
                return answer
            return wrapped

        for dev in controller.registry.devices.values():
            dev.probe = checking(dev, dev.probe)
        submit_wave(sim, controller, 12, duration_ms=4_000.0)
        sim.run(until=sim.now + 15_000.0)
        assert controller.crash_migrations >= 1
        assert len(controller.finished) == 12
        # Heartbeats saw loaded and idle nodes alike.
        assert any(checked) and 0 in checked

    def test_finished_session_leaves_the_index(self, boot_controller):
        sim, controller = boot_controller()
        submit_wave(sim, controller, 4, duration_ms=1_000.0)
        home = controller.active["s000"].node.name
        assert "s000" in controller.homed[home]
        sim.run(until=sim.now + 10_000.0)
        assert controller.active == {}
        assert all(not homed for homed in controller.homed.values())

    def test_migrated_session_moves_to_its_new_node(self, boot_controller):
        sim, controller = boot_controller()
        submit_wave(sim, controller, 4, duration_ms=5_000.0)
        session = controller.active["s000"]
        source = session.node.name
        target = controller._migrate_session(session, reason="rebalance")
        assert target.name != source
        assert "s000" in controller.homed[target.name]
        assert "s000" not in controller.homed[source]
        for name in controller.homed:
            assert [s.session_id for s in scan_homed(controller, name)] == \
                sorted(controller.homed[name])
