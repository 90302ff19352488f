"""Network manager: routing, wake-then-flip, traffic sampling."""

import pytest

from repro.net.manager import NetworkManager
from repro.sim.kernel import Simulator
from tests.coroutines import spawn


def test_default_route_is_wifi():
    sim = Simulator()
    manager = NetworkManager(sim)
    assert manager.active is manager.wifi


def test_switch_to_bluetooth_immediate_when_on():
    sim = Simulator()
    manager = NetworkManager(sim)
    manager.use("bluetooth")
    assert manager.active_name == "bluetooth"
    assert manager.switch_log[-1][1] == "bluetooth"


def test_switch_to_sleeping_wifi_flips_after_wake():
    """The paper's sequencing: wake first, flip the route once usable."""
    sim = Simulator()
    manager = NetworkManager(sim)
    manager.use("bluetooth")
    manager.wifi.power_off()

    def proc():
        yield 1_000.0
        manager.use("wifi")

    spawn(sim, proc())
    sim.run(until=1_050.0)
    # Wakeup takes 100 ms; the route must still be bluetooth right after
    # the use() call.
    assert manager.active_name == "bluetooth"
    sim.run(until=2_000.0)
    assert manager.active_name == "wifi"


def test_superseded_route_flip_is_discarded():
    sim = Simulator()
    manager = NetworkManager(sim)
    manager.use("bluetooth")
    manager.wifi.power_off()

    def proc():
        yield 1_000.0
        manager.use("wifi")       # starts the 100 ms wake
        yield 10.0
        manager.use("bluetooth")  # changes mind before WiFi usable

    spawn(sim, proc())
    sim.run(until=5_000.0)
    assert manager.active_name == "bluetooth"


def test_power_down_idle_turns_off_inactive_radio():
    sim = Simulator()
    manager = NetworkManager(sim)
    manager.use("bluetooth")
    manager.power_down_idle()
    assert not manager.wifi.is_on
    assert manager.bluetooth.is_on


def test_traffic_sampling_buckets_bytes():
    sim = Simulator()
    manager = NetworkManager(sim, epoch_ms=100.0)

    def proc():
        for _ in range(10):
            manager.account(12_500)  # 1 Mbps if spread over 100 ms
            yield 100.0

    spawn(sim, proc())
    sim.run(until=1_100.0)
    samples = manager.samples_mbps()
    assert len(samples) >= 10
    assert samples[0] == pytest.approx(1.0)


def test_unknown_interface_rejected():
    sim = Simulator()
    manager = NetworkManager(sim)
    with pytest.raises(ValueError):
        manager.use("lte")


def test_use_same_interface_is_noop():
    sim = Simulator()
    manager = NetworkManager(sim)
    manager.use("wifi")
    assert manager.switch_log == []


def test_energy_sums_both_radios():
    sim = Simulator()
    manager = NetworkManager(sim)
    sim.run(until=10_000.0)
    total = manager.energy_joules()
    assert total == pytest.approx(
        manager.wifi.energy_joules() + manager.bluetooth.energy_joules()
    )
    assert total > 0
