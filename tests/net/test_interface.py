"""Radio interfaces: serialization time, energy, wake/reassociation."""

import pytest

from repro.net.interface import (
    BLUETOOTH_CLASSIC,
    RadioState,
    WIFI_80211N,
    WirelessInterface,
)
from repro.net.message import Message
from repro.sim.kernel import Simulator
from tests.coroutines import spawn


class SinkLink:
    def __init__(self):
        self.received = []

    def deliver(self, message, via=None):
        self.received.append(message)


def test_tx_time_matches_bandwidth():
    # 150 Mbps == 18.75 KB/ms; a ~1.4 KB packet leaves in ~0.077 ms.
    assert WIFI_80211N.tx_time_ms(18750) == pytest.approx(1.0)
    assert BLUETOOTH_CLASSIC.tx_time_ms(2625) == pytest.approx(1.0)


def test_send_delivers_to_link():
    sim = Simulator()
    radio = WirelessInterface(sim, WIFI_80211N)
    link = SinkLink()
    radio.attach_link(link)
    radio.send(Message.of_size(10_000))
    sim.run(until=100.0)
    assert len(link.received) == 1
    assert radio.messages_sent == 1
    assert radio.bytes_sent > 10_000  # per-packet headers added


def test_messages_serialize_fifo():
    sim = Simulator()
    radio = WirelessInterface(sim, BLUETOOTH_CLASSIC)
    link = SinkLink()
    radio.attach_link(link)
    messages = [Message.of_size(26_250 + i) for i in range(3)]  # ~10 ms each
    for msg in messages:
        radio.send(msg)
    sim.run(until=1000.0)
    assert link.received == messages
    sent_times = [t for t, _wire in radio.tx_log]
    assert len(sent_times) == 3
    assert sent_times[1] - sent_times[0] == pytest.approx(10.0, rel=0.05)
    assert sent_times[2] - sent_times[1] == pytest.approx(10.0, rel=0.05)


def test_energy_charged_for_transmission():
    sim = Simulator()
    radio = WirelessInterface(sim, WIFI_80211N)
    radio.attach_link(SinkLink())
    radio.send(Message.of_size(187_500))  # ~10 ms at 150 Mbps
    sim.run(until=100.0)
    energy = radio.energy_joules()
    # ~10 ms at 2 W plus ~90 ms idle at 0.55 W.
    assert energy == pytest.approx(0.02 + 0.09 * 0.55, rel=0.1)


def test_power_off_stops_draw():
    sim = Simulator()
    radio = WirelessInterface(sim, WIFI_80211N)
    radio.power_off()
    sim.run(until=1000.0)
    assert radio.energy_joules() == pytest.approx(0.0, abs=1e-6)
    assert radio.state == RadioState.OFF


def test_warm_wakeup_latency():
    sim = Simulator()
    radio = WirelessInterface(sim, WIFI_80211N)
    radio.power_off()
    woke = []

    def proc():
        yield 1_000.0     # short sleep: warm path
        usable = radio.power_on()
        yield usable
        woke.append(sim.now)

    spawn(sim, proc())
    sim.run(until=10_000.0)
    assert woke[0] == pytest.approx(1_000.0 + WIFI_80211N.wakeup_ms)


def test_reassociation_after_long_sleep():
    sim = Simulator()
    radio = WirelessInterface(sim, WIFI_80211N)
    radio.power_off()
    woke = []

    def proc():
        yield 10_000.0    # past reassociation_after_ms
        usable = radio.power_on()
        yield usable
        woke.append(sim.now)

    spawn(sim, proc())
    sim.run(until=60_000.0)
    assert woke[0] == pytest.approx(10_000.0 + WIFI_80211N.reassociation_ms)


def test_messages_queue_while_radio_off():
    """Traffic sent at a sleeping radio waits for the wake — the latency
    the predictive switcher avoids."""
    sim = Simulator()
    radio = WirelessInterface(sim, WIFI_80211N)
    link = SinkLink()
    radio.attach_link(link)
    radio.power_off()
    delivered_at = []

    def proc():
        yield 1_000.0
        radio.send(Message.of_size(1_000))
        yield 1.0
        radio.power_on()

    def watcher():
        while not link.received:
            yield 5.0
        delivered_at.append(sim.now)

    spawn(sim, proc())
    spawn(sim, watcher())
    sim.run(until=10_000.0)
    assert delivered_at[0] >= 1_000.0 + WIFI_80211N.wakeup_ms


def test_power_on_when_already_on_is_noop():
    sim = Simulator()
    radio = WirelessInterface(sim, WIFI_80211N)
    usable = radio.power_on()
    assert usable.triggered
    assert radio.wake_count == 0


def test_link_override_per_message():
    sim = Simulator()
    radio = WirelessInterface(sim, WIFI_80211N)
    default, override = SinkLink(), SinkLink()
    radio.attach_link(default)
    radio.send(Message.of_size(100))
    radio.send(Message.of_size(100), link=override)
    radio.send(Message.of_size(100))
    sim.run(until=100.0)
    assert len(default.received) == 2
    assert len(override.received) == 1
