"""Reliable transports: ordering, retransmission, TCP latency floor."""

import pytest

from repro.net.interface import WIFI_80211N, WirelessInterface
from repro.net.link import LinkSpec, NetworkLink
from repro.net.message import Message
from repro.net.transport import ReliableUdpTransport, TcpTransport
from repro.sim.kernel import Event, Simulator, TimerHandle
from tests.coroutines import spawn


def build(sim, loss=0.0, transport_cls=ReliableUdpTransport, rto_ms=30.0):
    radio = WirelessInterface(sim, WIFI_80211N)
    link = NetworkLink(
        sim,
        LinkSpec(name="wifi", latency_ms=1.0, jitter_ms=0.0,
                 loss_probability=loss),
    )
    delivered = []
    transport = transport_cls(sim, name="t", rto_ms=rto_ms)
    transport.bind(
        lambda: radio, {"wifi": link}, on_deliver=lambda m: delivered.append(m)
    )
    return transport, radio, delivered


def test_basic_delivery():
    sim = Simulator()
    transport, _radio, delivered = build(sim)
    transport.send(Message.of_size(1000, kind="x"))
    sim.run(until=1000.0)
    assert len(delivered) == 1
    assert transport.stats.messages_delivered == 1


def test_in_order_delivery_under_loss():
    sim = Simulator(seed=3)
    transport, _radio, delivered = build(sim, loss=0.3)
    for i in range(50):
        msg = Message.of_size(500)
        msg.metadata["n"] = i
        transport.send(msg)
    sim.run(until=60_000.0)
    assert [m.metadata["n"] for m in delivered] == list(range(50))
    assert transport.stats.retransmissions > 0


def test_delivered_event_fires():
    """Delivery reaches ``on_deliver`` with the very message sent."""
    sim = Simulator()
    transport, _radio, delivered = build(sim)
    message = Message.of_size(100)
    assert transport.send(message) is None
    sim.run(until=100.0)
    assert delivered == [message]
    assert transport.stats.messages_delivered == 1
    assert transport.delivered(message)


def test_delivery_drops_the_delivered_event():
    """A delivered message, retransmitted or not, holds no event: nothing
    in its metadata points back at the simulator's events."""
    sim = Simulator(seed=3)
    transport, _radio, delivered = build(sim, loss=0.3)
    for _ in range(20):
        transport.send(Message.of_size(500))
    sim.run(until=60_000.0)
    assert len(delivered) == 20
    assert transport.stats.retransmissions > 0
    assert not any(
        isinstance(value, Event)
        for m in delivered for value in m.metadata.values()
    )


def test_rudp_faster_than_tcp():
    def latency_with(cls):
        sim = Simulator()
        transport, _radio, _delivered = build(sim, transport_cls=cls)
        for _ in range(10):
            transport.send(Message.of_size(1000))
        sim.run(until=10_000.0)
        return transport.stats.mean_latency_ms()

    rudp = latency_with(ReliableUdpTransport)
    tcp = latency_with(TcpTransport)
    # TCP carries the ~40 ms delayed-ACK floor the paper avoids (§IV-B).
    assert tcp >= rudp + 35.0


def test_duplicate_suppression():
    """A spurious retransmission must not deliver twice."""
    sim = Simulator(seed=1)
    # Aggressive RTO forces retransmissions even without loss.
    transport, _radio, delivered = build(sim, loss=0.0, rto_ms=0.01)
    transport.send(Message.of_size(200_000))  # slow enough to trigger RTO
    sim.run(until=10_000.0)
    assert len(delivered) == 1


def test_gives_up_after_max_retries():
    sim = Simulator(seed=2)

    radio = WirelessInterface(sim, WIFI_80211N)
    # A link that drops everything.
    link = NetworkLink(
        sim, LinkSpec(name="dead", latency_ms=1.0, loss_probability=0.99)
    )
    delivered = []
    transport = ReliableUdpTransport(sim, rto_ms=5.0, max_retries=3)
    transport.bind(lambda: radio, {"wifi": link}, lambda m: delivered.append(m))
    transport.send(Message.of_size(100))
    sim.run(until=60_000.0)
    give_ups = sim.spans.by_name("give_up")
    assert transport.stats.retransmissions <= 3 or give_ups


def test_bytes_accounting_includes_arq_header():
    sim = Simulator()
    transport, _radio, _delivered = build(sim)
    transport.send(Message.of_size(1000))
    assert transport.stats.bytes_offered > 1000


def live_rto_timers(sim):
    return [
        entry for entry in sim._queue
        if isinstance(entry[2], TimerHandle) and entry[2].alive
        and getattr(entry[2].fn, "__name__", "") == "_on_rto"
    ]


def test_rto_timer_cancelled_on_ack():
    """ACKed messages cancel their RTO callbacks: the queue drains at
    delivery time, not after the exponential-backoff window."""
    sim = Simulator()
    transport, _radio, delivered = build(sim, rto_ms=30.0)
    transport.send(Message.of_size(1000, kind="x"))
    timers = list(transport._rto_timers.values())
    assert len(timers) == 1 and timers[0].alive
    sim.run()  # no `until`: terminates only when the queue truly drains
    assert len(delivered) == 1
    # Delivery takes ~1 ms link latency + tx time; far below the 30 ms RTO.
    assert sim.now < 30.0
    assert transport._rto_timers == {}
    assert not timers[0].alive


def test_queue_drains_after_last_delivery_under_loss():
    """Even with retransmissions, no timer survives the final ACK."""
    sim = Simulator(seed=3)
    transport, _radio, delivered = build(sim, loss=0.3, rto_ms=20.0)
    for _ in range(30):
        transport.send(Message.of_size(500))
    sim.run()  # would previously idle out the full backoff window
    assert len(delivered) == 30
    assert transport.in_flight() == 0
    assert transport._rto_timers == {}
    assert live_rto_timers(sim) == []


def test_resend_does_not_compound_header_overhead():
    """Re-sending the same Message (failover re-dispatch) must not keep
    growing it by the ARQ header."""
    from repro.net.message import RUDP_HEADER_BYTES

    sim = Simulator()
    transport, _radio, _delivered = build(sim)
    other, _radio2, _delivered2 = build(sim)
    msg = Message.of_size(1000)
    transport.send(msg)
    assert msg.size_bytes == 1000
    assert msg.transport_overhead_bytes == RUDP_HEADER_BYTES
    sim.run(until=100.0)
    other.send(msg)  # e.g. re-dispatched to another node's uplink
    sim.run(until=200.0)
    assert msg.size_bytes == 1000
    assert msg.transport_overhead_bytes == RUDP_HEADER_BYTES
    assert msg.framed_bytes == 1000 + RUDP_HEADER_BYTES


def test_transport_state_stays_bounded():
    """Delivered sequence numbers are pruned; history does not accumulate."""
    sim = Simulator(seed=5)
    transport, _radio, delivered = build(sim, loss=0.2, rto_ms=20.0)
    for _ in range(200):
        transport.send(Message.of_size(400))
    sim.run()
    assert len(delivered) == 200
    assert transport.in_flight() == 0
    assert len(transport._unacked) == 0
    assert len(transport._reorder) == 0
    assert len(transport._rto_timers) == 0


def test_route_change_mid_stream():
    """The radio provider is consulted per message (switching support)."""
    sim = Simulator()
    wifi = WirelessInterface(sim, WIFI_80211N)
    from repro.net.interface import BLUETOOTH_CLASSIC

    bt = WirelessInterface(sim, BLUETOOTH_CLASSIC, name="bt")
    wifi_link = NetworkLink(sim, LinkSpec(name="wifi", latency_ms=1.0))
    bt_link = NetworkLink(sim, LinkSpec(name="bluetooth", latency_ms=2.0))
    active = {"radio": wifi}
    delivered = []
    transport = ReliableUdpTransport(sim)
    transport.bind(
        lambda: active["radio"],
        {"wifi": wifi_link, "bluetooth": bt_link},
        lambda m: delivered.append(m),
    )
    transport.send(Message.of_size(100))

    def switch_then_send():
        yield 50.0
        active["radio"] = bt
        transport.send(Message.of_size(100))

    spawn(sim, switch_then_send())
    sim.run(until=5_000.0)
    assert wifi.messages_sent == 1
    assert bt.messages_sent == 1
    assert len(delivered) == 2


def test_ack_hook_sees_every_fresh_arrival_and_delivered_tracks_order():
    sim = Simulator(seed=3)
    transport, _radio, delivered = build(sim, loss=0.3)
    acked = []
    transport.on_ack = acked.append
    messages = [Message.of_size(500) for _ in range(20)]
    for msg in messages:
        transport.send(msg)
    assert not any(transport.delivered(m) for m in messages)
    sim.run(until=60_000.0)
    assert len(acked) == len(messages)
    assert sorted(m.metadata["seq"] for m in acked) == list(range(20))
    assert all(transport.delivered(m) for m in messages)
    assert len(delivered) == len(messages)
