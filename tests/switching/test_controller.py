"""Switching controller driving a live network manager."""

import pytest

from repro.net.manager import NetworkManager
from repro.sim.kernel import Simulator
from repro.switching.controller import SwitchingController
from repro.switching.policies import (
    AlwaysBluetoothPolicy,
    AlwaysWifiPolicy,
    ReactivePolicy,
)
from tests.coroutines import spawn


def drive_traffic(sim, manager, mbps_fn, duration_ms):
    """Feed `account` per epoch according to mbps_fn(t_ms)."""

    def proc():
        while sim.now < duration_ms:
            mbps = mbps_fn(sim.now)
            manager.account(int(mbps * 100_000 / 8))  # bytes per 100 ms
            yield 100.0

    spawn(sim, proc())


def test_always_bluetooth_moves_route():
    sim = Simulator()
    manager = NetworkManager(sim)
    SwitchingController(sim, manager, AlwaysBluetoothPolicy())
    drive_traffic(sim, manager, lambda t: 1.0, 2_000.0)
    sim.run(until=2_000.0)
    assert manager.active_name == "bluetooth"
    assert not manager.wifi.is_on  # idle radio powered down


def test_reactive_switches_on_surge():
    sim = Simulator()
    manager = NetworkManager(sim)
    manager.use("bluetooth")
    controller = SwitchingController(
        sim, manager, ReactivePolicy(threshold_mbps=16.0, cooldown_epochs=5)
    )
    drive_traffic(
        sim, manager, lambda t: 2.0 if t < 3_000 else 40.0, 6_000.0
    )
    sim.run(until=6_000.0)
    assert manager.active_name == "wifi"
    assert controller.stats.switches_to_wifi >= 1
    assert controller.stats.overload_epochs > 0  # the reactive penalty


def test_reactive_returns_to_bluetooth_when_calm():
    sim = Simulator()
    manager = NetworkManager(sim)
    manager.use("bluetooth")
    controller = SwitchingController(
        sim, manager, ReactivePolicy(threshold_mbps=16.0, cooldown_epochs=5)
    )
    drive_traffic(
        sim, manager,
        lambda t: 40.0 if 1_000 < t < 2_000 else 2.0,
        8_000.0,
    )
    sim.run(until=8_000.0)
    assert manager.active_name == "bluetooth"
    assert controller.stats.switches_to_bluetooth >= 1


def test_residency_accounting():
    sim = Simulator()
    manager = NetworkManager(sim)
    controller = SwitchingController(sim, manager, AlwaysWifiPolicy())
    drive_traffic(sim, manager, lambda t: 1.0, 3_000.0)
    sim.run(until=3_000.0)
    stats = controller.stats
    assert stats.epochs_on_wifi == stats.epochs
    assert stats.bluetooth_residency == 0.0


def test_exogenous_source_consulted():
    sim = Simulator()
    manager = NetworkManager(sim)
    calls = []

    class SpyPolicy:
        def decide(self, mbps, exogenous, current):
            calls.append(tuple(exogenous))
            from repro.switching.policies import SwitchDecision

            return SwitchDecision.HOLD

    SwitchingController(
        sim, manager, SpyPolicy(), exogenous_source=lambda: (1.5, 2.5)
    )
    drive_traffic(sim, manager, lambda t: 1.0, 1_000.0)
    sim.run(until=1_000.0)
    assert calls and calls[0] == (1.5, 2.5)


def test_controller_timer_hygiene_with_planner_policy():
    """The epoch loop runs every epoch on its own timer, and an armed
    invariant monitor stays clean, even when the policy replans
    mid-run."""
    from repro.apps.games import GAMES
    from repro.check import InvariantMonitor
    from repro.core.config import GBoosterConfig
    from repro.devices.profiles import LG_NEXUS_5, NVIDIA_SHIELD
    from repro.plan import SessionContext, SessionPlanner
    from repro.switching.policies import PlannerPolicy

    sim = Simulator(seed=0)
    monitor = InvariantMonitor(sim, interval_ms=100.0)
    monitor.start()
    manager = NetworkManager(sim)
    manager.use("bluetooth")
    ctx = SessionContext(
        app=GAMES["G1"],
        user_device=LG_NEXUS_5,
        service_device=NVIDIA_SHIELD,
        config=GBoosterConfig(planner_probe_frames=4),
    )
    planner = SessionPlanner(ctx, seed=0)
    policy = PlannerPolicy(planner, latency_source=lambda: 25.0)
    controller = SwitchingController(sim, manager, policy)
    drive_traffic(sim, manager, lambda t: 4.0, 3_000.0)
    sim.run(until=3_000.0)
    assert monitor.finalize() == []
    assert controller.stats.epochs == 30
    assert planner.decision is not None
    assert manager.active_name == planner.decision.radio
