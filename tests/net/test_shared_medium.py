"""Shared-medium (CSMA) contention between radios."""

import pytest

from repro.net.interface import SharedMedium, WIFI_80211N, WirelessInterface
from repro.net.message import Message
from repro.sim.kernel import Simulator


class SinkLink:
    def __init__(self):
        self.received = []

    def deliver(self, message, via=None):
        self.received.append(message)


def send_at_once(count, shared):
    """``count`` radios each send one 10 ms message at t=0; returns the
    sorted times their transmissions ended, and the medium."""
    sim = Simulator()
    medium = SharedMedium(sim) if shared else None
    radios = []
    for i in range(count):
        radio = WirelessInterface(sim, WIFI_80211N, name=f"r{i}",
                                  medium=medium)
        radio.attach_link(SinkLink())
        radio.send(Message.of_size(187_500))  # ~10 ms at 150 Mbps
        radios.append(radio)
    sim.run(until=1_000.0)
    return sorted(t for radio in radios for t, _wire in radio.tx_log), medium


def test_independent_radios_overlap():
    times, _ = send_at_once(2, shared=False)
    assert times[0] == pytest.approx(times[1], abs=0.5)


def test_shared_medium_serializes_transmissions():
    times, medium = send_at_once(2, shared=True)
    # The second transmission waits for the first: ~2x the airtime apart.
    assert times[1] >= times[0] + 9.0
    assert medium.transmissions == 2
    assert medium.airtime_ms == pytest.approx(2 * times[0], rel=0.1)


def test_aggregate_throughput_bounded_by_channel():
    """Four radios on one channel cannot exceed one channel's rate."""
    done, medium = send_at_once(4, shared=True)
    assert len(done) == 4
    assert max(done) >= 40.0  # serialized: ~4 x 10 ms
    assert medium.airtime_ms == pytest.approx(max(done), rel=0.01)


def test_medium_utilization():
    sim = Simulator()
    medium = SharedMedium(sim)
    radio = WirelessInterface(sim, WIFI_80211N, medium=medium)
    radio.attach_link(SinkLink())
    radio.send(Message.of_size(187_500))
    sim.run(until=100.0)
    assert 0.05 <= medium.utilization(100.0) <= 0.2
    assert medium.utilization(0.0) == 0.0
