"""UDP multicast fan-out (state replication, §VI-B)."""

import pytest

from repro.net.interface import WIFI_80211N, WirelessInterface
from repro.net.link import LinkSpec, NetworkLink
from repro.net.message import Message
from repro.net.multicast import MulticastGroup
from repro.sim.kernel import Simulator


def build_group(sim, n_members):
    radio = WirelessInterface(sim, WIFI_80211N)
    group = MulticastGroup(sim)
    group.bind_radio(lambda: radio)
    inboxes = []
    for i in range(n_members):
        inbox = []
        link = NetworkLink(
            sim, LinkSpec(name=f"m{i}", latency_ms=1.0, jitter_ms=0.0),
            receiver=(lambda box: lambda m: box.append(m))(inbox),
        )
        group.join(f"node{i}", link)
        inboxes.append(inbox)
    return group, radio, inboxes


def test_every_member_receives_copy():
    sim = Simulator()
    group, _radio, inboxes = build_group(sim, 3)
    group.send(Message.of_size(5_000, kind="state"))
    sim.run(until=1_000.0)
    assert all(len(box) == 1 for box in inboxes)
    members = {box[0].metadata["mcast_member"] for box in inboxes}
    assert members == {"node0", "node1", "node2"}


def test_single_radio_transmission():
    """One send = one airtime charge regardless of member count."""
    sim = Simulator()
    group, radio, _ = build_group(sim, 5)
    group.send(Message.of_size(10_000))
    sim.run(until=1_000.0)
    assert radio.messages_sent == 1
    assert group.multicast_bytes == 10_000
    assert group.unicast_equivalent_bytes == 50_000


def test_bandwidth_saving_grows_with_members():
    sim = Simulator()
    group, _radio, _ = build_group(sim, 4)
    for _ in range(10):
        group.send(Message.of_size(1_000))
    sim.run(until=1_000.0)
    saving = 1 - group.multicast_bytes / group.unicast_equivalent_bytes
    assert saving == pytest.approx(0.75)


def test_empty_group_send_is_noop():
    sim = Simulator()
    radio = WirelessInterface(sim, WIFI_80211N)
    group = MulticastGroup(sim)
    group.bind_radio(lambda: radio)
    group.send(Message.of_size(100))
    sim.run()
    assert radio.messages_sent == 0
    assert group.messages_sent == 0
    assert sim.now == 0.0  # nothing was queued


def test_join_duplicate_rejected():
    sim = Simulator()
    group, _radio, _ = build_group(sim, 1)
    with pytest.raises(ValueError):
        group.join("node0", None)


def test_leave_removes_member():
    sim = Simulator()
    group, _radio, inboxes = build_group(sim, 2)
    group.leave("node0")
    group.send(Message.of_size(100))
    sim.run(until=100.0)
    assert len(inboxes[0]) == 0
    assert len(inboxes[1]) == 1


def test_unbound_radio_raises():
    sim = Simulator()
    group = MulticastGroup(sim)
    link = NetworkLink(sim, LinkSpec(name="x", latency_ms=1.0))
    group.join("n", link)
    with pytest.raises(RuntimeError):
        group.send(Message.of_size(10))


def test_fan_out_clones_keep_metadata_and_member_order():
    sim = Simulator()
    radio = WirelessInterface(sim, WIFI_80211N)
    group = MulticastGroup(sim)
    group.bind_radio(lambda: radio)
    arrivals = []
    for name in ("b", "a", "c"):
        group.join(name, NetworkLink(
            sim, LinkSpec(name=name, latency_ms=1.0, jitter_ms=0.0),
            receiver=arrivals.append,
        ))
    msg = Message.of_size(2_000, kind="state", frame_id=9, _private=object())
    group.send(msg)
    sim.run(until=1_000.0)
    # Equal latencies: arrivals keep the order the links were handed the
    # clones in, which is join order.
    assert [m.metadata["mcast_member"] for m in arrivals] == ["b", "a", "c"]
    public = {k: v for k, v in msg.metadata.items() if not k.startswith("_")}
    assert public["frame_id"] == 9 and "_private" in msg.metadata
    for clone in arrivals:
        assert clone is not msg
        assert clone.metadata == {
            **public, "mcast_member": clone.metadata["mcast_member"],
        }
        assert (clone.size_bytes, clone.kind, clone.message_id) == (
            msg.size_bytes, msg.kind, msg.message_id,
        )


def test_sends_deliver_through_one_fan_out_type():
    sim = Simulator()
    group, radio, _ = build_group(sim, 2)
    fan_outs = []
    send = radio.send

    def recording_send(message, link=None):
        fan_outs.append(link)
        return send(message, link=link)

    radio.send = recording_send
    group.send(Message.of_size(100))
    group.send(Message.of_size(100))
    sim.run(until=1_000.0)
    assert len(fan_outs) == 2
    assert fan_outs[0] is not fan_outs[1]
    assert type(fan_outs[0]) is type(fan_outs[1])
