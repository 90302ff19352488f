"""FaultInjector: arming schedules against links, radios, and nodes."""

import pytest

from repro.faults import FaultInjector, FaultSchedule
from repro.net.interface import WIFI_80211N, WirelessInterface
from repro.net.link import LinkSpec, NetworkLink
from repro.sim.kernel import Simulator


class StubNode:
    def __init__(self, name="stub"):
        self.name = name
        self.failed = False
        self.rejoined = False

    def fail(self):
        self.failed = True

    def rejoin(self):
        self.failed = False
        self.rejoined = True


class StubClient:
    def __init__(self):
        self.recovered = []

    def mark_recovered(self, node_name):
        self.recovered.append(node_name)


class StubNetwork:
    def __init__(self, sim):
        self.wifi = WirelessInterface(sim, WIFI_80211N)
        from repro.net.interface import BLUETOOTH_CLASSIC

        self.bluetooth = WirelessInterface(sim, BLUETOOTH_CLASSIC, name="bt")


def make_link(sim, loss=0.0):
    return NetworkLink(
        sim, LinkSpec(name="l", latency_ms=1.0, loss_probability=loss)
    )


def test_outage_applies_and_removes_total_loss():
    sim = Simulator()
    up = make_link(sim)
    down = make_link(sim)
    schedule = FaultSchedule().outage(at_ms=10.0, duration_ms=20.0)
    injector = FaultInjector(sim, schedule, nodes=[],
                             uplink_links=[up], downlink_links=[down])
    injector.arm()
    probes = []
    for t in (5.0, 15.0, 40.0):
        sim.call_at(t, lambda: probes.append((sim.now, up.effective_loss,
                                              down.effective_loss)))
    sim.run()
    assert probes == [(5.0, 0.0, 0.0), (15.0, 1.0, 1.0), (40.0, 0.0, 0.0)]
    kinds = [(e.kind, e.phase) for e in injector.log]
    assert kinds == [("outage", "start"), ("outage", "end")]


def test_loss_burst_composes_with_base_loss():
    sim = Simulator()
    link = make_link(sim, loss=0.1)
    schedule = FaultSchedule().loss_burst(
        at_ms=10.0, duration_ms=10.0, loss_probability=0.5,
        direction="uplink",
    )
    injector = FaultInjector(sim, schedule, nodes=[], uplink_links=[link])
    injector.arm()
    probes = []
    sim.call_at(15.0, lambda: probes.append(link.effective_loss))
    sim.call_at(25.0, lambda: probes.append(link.effective_loss))
    sim.run()
    # 1 - (1-0.1)(1-0.5) = 0.55 during the burst, back to base after.
    assert probes[0] == pytest.approx(0.55)
    assert probes[1] == pytest.approx(0.1)


def test_direction_selects_links():
    sim = Simulator()
    up = make_link(sim)
    down = make_link(sim)
    schedule = FaultSchedule().outage(at_ms=1.0, duration_ms=5.0,
                                      direction="downlink")
    injector = FaultInjector(sim, schedule, nodes=[],
                             uplink_links=[up], downlink_links=[down])
    injector.arm()
    probes = []
    sim.call_at(3.0, lambda: probes.append((up.effective_loss,
                                            down.effective_loss)))
    sim.run()
    assert probes == [(0.0, 1.0)]


def test_radio_degradation_applies_and_restores():
    sim = Simulator()
    network = StubNetwork(sim)
    schedule = FaultSchedule().degrade_radio(
        at_ms=5.0, duration_ms=10.0, bandwidth_factor=0.25, radio="wifi"
    )
    injector = FaultInjector(sim, schedule, nodes=[], network=network)
    injector.arm()
    probes = []
    sim.call_at(10.0, lambda: probes.append(
        (network.wifi.bandwidth_scale, network.bluetooth.bandwidth_scale)))
    sim.call_at(20.0, lambda: probes.append(
        (network.wifi.bandwidth_scale, network.bluetooth.bandwidth_scale)))
    sim.run()
    assert probes == [(0.25, 1.0), (1.0, 1.0)]


def test_crash_and_rejoin_fire_and_notify_client():
    sim = Simulator()
    node = StubNode("Shield")
    client = StubClient()
    schedule = FaultSchedule().crash(at_ms=10.0, rejoin_at_ms=30.0)
    injector = FaultInjector(sim, schedule, nodes=[node], client=client)
    injector.arm()
    states = []
    sim.call_at(20.0, lambda: states.append(node.failed))
    sim.call_at(40.0, lambda: states.append(node.failed))
    sim.run()
    assert states == [True, False]
    assert node.rejoined
    assert client.recovered == ["Shield"]
    assert [e.kind for e in injector.applied()] == ["crash", "rejoin"]
    assert len(injector.applied("rejoin")) == 1


def test_crash_is_silent_to_client():
    """The client is NOT told about the crash itself — only the rejoin."""
    sim = Simulator()
    node = StubNode()
    client = StubClient()
    schedule = FaultSchedule().crash(at_ms=10.0)
    injector = FaultInjector(sim, schedule, nodes=[node], client=client)
    injector.arm()
    sim.run()
    assert node.failed
    assert client.recovered == []


def test_invalid_schedule_rejected_at_construction():
    sim = Simulator()
    schedule = FaultSchedule().crash(at_ms=0.0, node=5)
    with pytest.raises(ValueError):
        FaultInjector(sim, schedule, nodes=[StubNode()])


def test_faults_recorded_as_marks():
    sim = Simulator()
    schedule = FaultSchedule().loss_burst(at_ms=1.0, duration_ms=2.0)
    link = make_link(sim)
    injector = FaultInjector(sim, schedule, nodes=[], uplink_links=[link])
    injector.arm()
    sim.run()
    marks = sim.spans.by_category("fault")
    assert [m.name for m in marks] == ["loss_burst.start", "loss_burst.end"]
    assert all(m.instant for m in marks)
