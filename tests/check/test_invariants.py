"""InvariantMonitor: law registration, violation capture, the sweep."""

import pytest

from repro.apps.games import GTA_SAN_ANDREAS
from repro.check import InvariantError, InvariantMonitor
from repro.core.config import GBoosterConfig
from repro.core.session import run_offload_session
from repro.devices.profiles import LG_NEXUS_5, NVIDIA_SHIELD
from repro.sim.kernel import Simulator


def run_idle(sim, until=2_000.0):
    sim.call_later(until, lambda: None)
    sim.run(until=until)


class TestRegistration:
    def test_custom_law_violation_is_captured(self):
        sim = Simulator(seed=0)
        monitor = InvariantMonitor(sim, interval_ms=100.0)
        monitor.register("demo.always_broken",
                         lambda: ("it broke", {"detail": 42}))
        monitor.start()
        run_idle(sim, until=1_000.0)
        monitor.finalize()
        assert not monitor.ok
        (violation,) = monitor.violations
        assert violation.invariant == "demo.always_broken"
        assert violation.message == "it broke"
        assert violation.details == {"detail": 42}

    def test_repeated_violation_folds_into_occurrences(self):
        sim = Simulator(seed=0)
        monitor = InvariantMonitor(sim, interval_ms=100.0)
        monitor.register("demo.always_broken", lambda: ("it broke", {}))
        monitor.start()
        run_idle(sim, until=1_000.0)
        monitor.finalize()
        # Many sweeps, one deduplicated violation record.
        (violation,) = monitor.violations
        assert violation.occurrences > 1
        assert monitor.checks_run > 1

    def test_healthy_law_never_fires(self):
        sim = Simulator(seed=0)
        monitor = InvariantMonitor(sim, interval_ms=100.0)
        monitor.register("demo.fine", lambda: None)
        monitor.start()
        run_idle(sim, until=1_000.0)
        assert monitor.finalize() == []
        assert monitor.ok
        assert monitor.invariant_names == ["demo.fine"]

    def test_crashing_law_becomes_a_violation_not_a_crash(self):
        sim = Simulator(seed=0)
        monitor = InvariantMonitor(sim, interval_ms=100.0)

        def bad_check():
            raise RuntimeError("check itself is buggy")

        monitor.register("demo.crashy", bad_check)
        monitor.start()
        run_idle(sim, until=400.0)
        monitor.finalize()
        assert not monitor.ok
        assert "RuntimeError" in monitor.violations[0].message

    def test_strict_mode_raises_at_the_breaking_sweep(self):
        sim = Simulator(seed=0)
        monitor = InvariantMonitor(sim, interval_ms=100.0, strict=True)
        monitor.register("demo.always_broken", lambda: ("it broke", {}))
        monitor.start()
        with pytest.raises(InvariantError) as err:
            run_idle(sim, until=1_000.0)
        assert err.value.violations[0].invariant == "demo.always_broken"

    def test_violations_increment_the_check_counter(self):
        sim = Simulator(seed=0)
        monitor = InvariantMonitor(sim, interval_ms=100.0)
        monitor.register("demo.always_broken", lambda: ("it broke", {}))
        monitor.start()
        run_idle(sim, until=500.0)
        monitor.finalize()
        assert sim.metrics.counter("check.violations").value >= 1


class TestSweep:
    def test_sweeps_every_interval_after_a_start_hop(self):
        sim = Simulator(seed=0)
        monitor = InvariantMonitor(sim, interval_ms=100.0)
        seen = []
        monitor.register("demo.clock", lambda: seen.append(sim.now))
        monitor.start()
        monitor.start()  # idempotent
        run_idle(sim, until=350.0)
        assert seen == [100.0, 200.0, 300.0]

    def test_finalize_stops_the_sweep(self):
        sim = Simulator(seed=0)
        monitor = InvariantMonitor(sim, interval_ms=100.0)
        monitor.register("demo.fine", lambda: None)
        monitor.start()
        run_idle(sim, until=250.0)
        monitor.finalize()
        checks = monitor.checks_run
        # The pending sweep was cancelled: it neither runs nor moves the
        # clock.
        assert sim.run() == 250.0
        assert monitor.checks_run == checks == 3


class TestSessionIntegration:
    def test_check_armed_offload_session_has_zero_violations(self):
        result = run_offload_session(
            GTA_SAN_ANDREAS, LG_NEXUS_5, [NVIDIA_SHIELD],
            config=GBoosterConfig(check=True),
            duration_ms=2_000.0,
        )
        assert result.check is not None
        assert result.check.monitor.violations == []
        assert result.check.digests.fidelity_mismatches() == []
        assert result.check.ok
        # The sweep actually ran and watched the full law packs.
        names = result.check.monitor.invariant_names
        assert result.check.monitor.checks_run > 3
        assert len(names) >= 5
        for law in (
            "client.frame_conservation",
            "transport.message_conservation",
            "cache.lockstep",
        ):
            assert law in names

    def test_chaos_experiment_under_check_is_clean(self):
        """Faults (loss burst + outage + crash) stress every law pack and
        must still break none of them."""
        from repro.experiments.chaos import run_chaos_point

        point = run_chaos_point(
            loss_probability=0.3, outage_ms=1_000.0, crash=True,
            duration_ms=6_000.0, check=True,
        )
        assert point.invariant_violations == 0
        assert point.survived

    def test_fleet_experiment_under_check_is_clean(self):
        from repro.experiments.fleet import run_fleet_point
        from repro.fleet import FleetConfig

        point, _report = run_fleet_point(
            n_sessions=8, n_devices=3, duration_ms=2_000.0,
            config=FleetConfig(check=True),
        )
        assert point.invariant_violations == 0
        assert point.zero_loss

    def test_admission_reconciliation_holds_under_overload_and_chaos(self):
        """Property: the admission ledger reconciles at every monitor
        sweep of an oversubscribed, crash-injected fleet run — sessions
        queue, dequeue, reject and migrate, and
        ``offered == admitted + rejected + waiting`` never breaks."""
        from repro.experiments.fleet import run_fleet_point
        from repro.fleet import FleetConfig

        point, report = run_fleet_point(
            n_sessions=24, n_devices=2, duration_ms=2_500.0, seed=3,
            crash=True, config=FleetConfig(check=True),
        )
        assert point.invariant_violations == 0
        assert point.queued > 0          # the dequeue path was exercised
        assert point.dequeued == point.queued
        adm = report["admission"]
        assert adm["offered"] == adm["admitted"] + adm["rejected"] + adm["waiting"]

    def test_admission_reconciliation_law_fires_on_a_cooked_ledger(self):
        """The law actually trips: corrupt the ledger mid-run and the
        monitor must record a ``fleet.admission_reconciliation``
        violation."""
        from repro.experiments.fleet import make_fleet_pool
        from repro.fleet import FleetConfig, FleetController

        sim = Simulator(seed=0)
        controller = FleetController(
            sim, make_fleet_pool(2), FleetConfig(check=True)
        )
        sim.run_until_event(controller.bootstrapped, limit=60_000.0)
        assert controller.monitor is not None
        assert (
            "fleet.admission_reconciliation"
            in controller.monitor.invariant_names
        )
        controller.admission.stats.offered += 1     # cook the books
        run_idle(sim, until=sim.now + 2_000.0)
        controller.monitor.finalize()
        assert any(
            v.invariant == "fleet.admission_reconciliation"
            for v in controller.monitor.violations
        )

    def test_unchecked_session_pays_nothing(self, monkeypatch):
        # Tearing a session down detaches its observers; skip the
        # teardown so the simulator shows what the session armed.
        monkeypatch.setattr(
            "repro.sim.kernel.Simulator.teardown", lambda self: None
        )
        result = run_offload_session(
            GTA_SAN_ANDREAS, LG_NEXUS_5, [NVIDIA_SHIELD],
            duration_ms=1_000.0,
        )
        assert result.check is None
        assert result.engine.sim.digests is None
