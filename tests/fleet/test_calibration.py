"""The fleet's cost model, pinned to the pipeline it stands in for.

A :class:`~repro.fleet.FleetNode` never runs the GL/codec pipeline: it
charges each frame a service time from :mod:`repro.core.costs`.  Every
capacity and planner number rests on that charge, so it is checked here
against a full :func:`~repro.core.session.run_offload_session` of the same
app on the same service device, seed and duration: on one ARM and one x86
device, per frame, decode (decompress + replay + ES translation) and
render must agree within 1%.

Encode does not agree, and the disagreement is pinned as a band with its
reason.  The fleet charges the whole frame; the server's Turbo encoder
charges a full-frame diff pass plus JPEG work on the changed tiles only,
``0.35 + 0.65 * sent`` of it.  G3 ships few tiles, so the fleet charges
about 2.5x what the session does.
"""

from dataclasses import replace

import pytest

from repro.apps.games import GAMES
from repro.core.session import run_offload_session
from repro.devices.profiles import DELL_OPTIPLEX_9010, LG_G5, NVIDIA_SHIELD
from repro.fleet import FleetConfig, FleetNode, FleetSession, SessionRequest
from repro.sim.kernel import Simulator

APP = GAMES["G3"]
SEED = 1
DURATION_MS = 5_000.0
TOLERANCE = 0.01
#: fleet / session encode per frame: the whole frame against the changed
#: share (read 2.47 on both devices at seed 1)
ENCODE_BAND = (1.5, 3.0)


def session_per_frame(device):
    """Decode, render and encode ms per frame on the real pipeline."""
    result = run_offload_session(
        APP, LG_G5, service_devices=[device],
        duration_ms=DURATION_MS, seed=SEED,
    )
    (node,) = result.nodes
    stats = node.stats
    frames = stats.frames_rendered
    assert frames > 100 and stats.state_batches == 0
    encoder = node.encoder.stats
    sent_share = encoder.tiles_sent / encoder.tiles_total
    return (
        stats.replay_ms_total / frames,
        stats.gpu_ms_total / frames,
        stats.encode_ms_total / frames,
        sent_share,
    )


def fleet_per_frame(device):
    """The same three costs for the first frame a fleet session issues,
    split out of ``FleetNode.service_time_ms``."""
    sim = Simulator(seed=SEED)
    node = FleetNode(sim, device)
    session = FleetSession(
        sim, SessionRequest("s", APP, arrival_ms=0.0), FleetConfig(),
        duration_ms=DURATION_MS,
    )
    issued = []
    submit = node.submit

    def record(task):
        issued.append(task)
        submit(task)

    node.submit = record
    session.start(node)
    sim.run(until=1.0)
    task = issued[0]
    decode = node.service_time_ms(replace(task, kind="state"))
    unrendered = node.service_time_ms(replace(task, fill_megapixels=0.0))
    return decode, node.service_time_ms(task) - unrendered, unrendered - decode


@pytest.mark.parametrize(
    "device", [NVIDIA_SHIELD, DELL_OPTIPLEX_9010], ids=["arm", "x86"]
)
def test_fleet_service_time_matches_the_pipeline(device):
    decode, render, encode, sent_share = session_per_frame(device)
    fleet_decode, fleet_render, fleet_encode = fleet_per_frame(device)
    assert fleet_decode == pytest.approx(decode, rel=TOLERANCE)
    assert fleet_render == pytest.approx(render, rel=TOLERANCE)
    low, high = ENCODE_BAND
    assert low < fleet_encode / encode < high
    # ... and the band is exactly the changed-share discount.
    assert fleet_encode * (0.35 + 0.65 * sent_share) == pytest.approx(
        encode, rel=1e-9
    )
