"""Service-node daemon behaviour in isolation."""

import pytest

from repro.codec.frames import FrameImage
from repro.core import costs
from repro.core.config import GBoosterConfig
from repro.core.server import ServiceNode
from repro.devices.profiles import DELL_OPTIPLEX_9010, NVIDIA_SHIELD
from repro.devices.runtime import ServiceDeviceRuntime
from repro.gpu.model import RenderRequest
from repro.net.message import Message


class FakeDownlink:
    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


def make_node(sim, spec=NVIDIA_SHIELD, config=None):
    runtime = ServiceDeviceRuntime(sim, spec)
    downlink = FakeDownlink()
    node = ServiceNode(
        sim, runtime, config or GBoosterConfig(), downlink=downlink,
        rtt_ms=3.0,
    )
    return node, downlink


def frame_message(request_id=0, fill=156.5, nominal=900, change=0.2):
    request = RenderRequest(
        request_id=request_id, frame_id=request_id, commands=[],
        fill_megapixels=fill, width=1280, height=720,
    )
    request.metadata["nominal_commands"] = nominal
    msg = Message.of_size(10_000, kind="frame_request")
    msg.metadata["request"] = request
    msg.metadata["frame_desc"] = FrameImage(
        1280, 720, change_fraction=change, detail=0.7
    )
    msg.metadata["nominal_commands"] = nominal
    return msg


def test_frame_rendered_and_returned(sim):
    node, downlink = make_node(sim)
    node.on_frame_message(frame_message())
    sim.run(until=1_000.0)
    assert node.stats.frames_rendered == 1
    assert len(downlink.sent) == 1
    assert downlink.sent[0].kind == "frame"
    assert downlink.sent[0].size_bytes > 0


def test_service_stage_near_calibration(sim):
    """G1 on the Shield: decompress + replay + GPU + encode ~= 25 ms/frame
    at moderate scene change — the stage that bounds Fig 5(a)'s 37 FPS."""
    node, downlink = make_node(sim)
    for i in range(20):
        node.on_frame_message(frame_message(request_id=i, change=0.2))
    sim.run(until=5_000.0)
    assert node.stats.frames_rendered == 20
    # Throughput = 20 frames over total busy time.
    per_frame = sim.now and (
        node.stats.replay_ms_total
        + node.stats.gpu_ms_total
        + node.stats.encode_ms_total
    ) / 20
    assert 15.0 < per_frame < 30.0


def test_predicted_stage_close_to_actual(sim):
    node, _ = make_node(sim)
    msg = frame_message(change=0.2)
    request = msg.metadata["request"]
    predicted = node.predicted_stage_ms(request)
    node.on_frame_message(msg)
    sim.run(until=1_000.0)
    actual = (
        node.stats.replay_ms_total
        + node.stats.gpu_ms_total
        + node.stats.encode_ms_total
    )
    assert predicted == pytest.approx(actual, rel=0.35)


def test_state_batches_replayed_without_rendering(sim):
    node, downlink = make_node(sim)
    msg = Message.of_size(2_000, kind="state", nominal_commands=500)
    msg.metadata["nominal_commands"] = 500
    node.on_state_message(msg)
    sim.run(until=1_000.0)
    assert node.stats.state_batches == 1
    assert node.stats.frames_rendered == 0
    assert downlink.sent == []


def test_fcfs_ordering(sim):
    node, downlink = make_node(sim)
    for i in range(5):
        node.on_frame_message(frame_message(request_id=i))
    sim.run(until=5_000.0)
    returned = [m.metadata["request"].request_id for m in downlink.sent]
    assert returned == [0, 1, 2, 3, 4]


def test_priority_policy_serves_most_urgent_first(sim):
    """Under the "priority" policy, work queued behind a busy daemon is
    served lowest priority value first, FIFO within one priority; the
    item that arrived at an idle daemon goes first regardless."""
    node, downlink = make_node(
        sim, config=GBoosterConfig(service_queue_policy="priority")
    )
    for i, priority in enumerate([2.0, 2.0, 0.0, 1.0, 0.0, 2.0]):
        msg = frame_message(request_id=i)
        msg.metadata["request"].metadata["priority"] = priority
        node.on_frame_message(msg)
    sim.run(until=5_000.0)
    returned = [m.metadata["request"].request_id for m in downlink.sent]
    assert returned == [0, 2, 4, 3, 1, 5]


def test_queued_workload_drops_as_frames_finish(sim):
    node, _ = make_node(sim)
    for i in range(4):
        node.on_frame_message(frame_message(request_id=i, fill=100.0))
    # Accepted workload includes the remote-render overhead factor.
    overhead = costs.REMOTE_RENDER_OVERHEAD
    assert node.queued_workload_mp == pytest.approx(400.0 * overhead)
    sim.run(until=10_000.0)
    assert node.queued_workload_mp == pytest.approx(0.0)


def test_a_redispatched_request_weighs_like_a_fresh_copy(sim):
    """A node inflates an arriving request's fill by the remote-render
    overhead.  When a failure moves the request on, Eq. 4 must price it
    from its base fill, not charge the overhead a second time."""
    failed, _ = make_node(sim)
    survivor, _ = make_node(sim, DELL_OPTIPLEX_9010)
    message = frame_message()
    failed.on_frame_message(message)
    arrived = message.metadata["request"]
    fresh = frame_message().metadata["request"]
    assert arrived.fill_megapixels > fresh.fill_megapixels
    assert (survivor.predicted_stage_ms(arrived)
            == survivor.predicted_stage_ms(fresh))
    assert (survivor.capability_mp_per_ms(arrived)
            == survivor.capability_mp_per_ms(fresh))


def test_x86_node_pays_emulation_but_encodes_faster(sim):
    shield, _ = make_node(sim, NVIDIA_SHIELD)
    pc, _ = make_node(sim, DELL_OPTIPLEX_9010)
    request = frame_message(change=0.9).metadata["request"]
    shield_stage = shield.predicted_stage_ms(request)
    pc_stage = pc.predicted_stage_ms(request)
    # At high change the Shield's ARM encoder dominates; the PC's x86
    # encoder more than pays for the ES-translation tax.
    assert pc_stage < shield_stage


def test_account_downlink_callback(sim):
    runtime = ServiceDeviceRuntime(sim, NVIDIA_SHIELD)
    downlink = FakeDownlink()
    accounted = []
    node = ServiceNode(
        sim, runtime, GBoosterConfig(), downlink=downlink, rtt_ms=3.0,
        account_downlink=lambda n: accounted.append(n),
    )
    node.on_frame_message(frame_message())
    sim.run(until=1_000.0)
    assert accounted and accounted[0] == downlink.sent[0].size_bytes
