"""GBooster client runtime internals (via short offload sessions)."""

import pytest

from repro.apps.games import GTA_SAN_ANDREAS
from repro.core.client import GBoosterClient
from repro.core.config import GBoosterConfig
from repro.core.server import base_fill
from repro.core.session import run_offload_session
from repro.devices.profiles import (
    DELL_M4600,
    DELL_OPTIPLEX_9010,
    LG_G5,
    LG_NEXUS_5,
    NVIDIA_SHIELD,
)
from repro.faults import FaultSchedule

DURATION = 15_000.0


def test_client_stats_accounting():
    result = run_offload_session(GTA_SAN_ANDREAS, LG_NEXUS_5,
                                 duration_ms=DURATION)
    stats = result.client_stats
    assert stats.frames_submitted > 100
    assert stats.frames_presented > 100
    assert stats.frames_presented <= stats.frames_submitted
    assert stats.uplink_bytes > 0
    assert stats.downlink_bytes > 0


def test_traffic_reduction_substantial():
    """Cache + LZ4 must remove most of the raw command bytes (§V-A)."""
    result = run_offload_session(GTA_SAN_ANDREAS, LG_NEXUS_5,
                                 duration_ms=DURATION)
    assert result.client_stats.traffic_reduction() > 0.5


def test_cache_disabled_increases_uplink():
    with_cache = run_offload_session(
        GTA_SAN_ANDREAS, LG_NEXUS_5,
        config=GBoosterConfig(cache_enabled=True),
        duration_ms=DURATION,
    )
    without_cache = run_offload_session(
        GTA_SAN_ANDREAS, LG_NEXUS_5,
        config=GBoosterConfig(cache_enabled=False),
        duration_ms=DURATION,
    )
    assert (
        without_cache.client_stats.uplink_bytes
        > with_cache.client_stats.uplink_bytes
    )


def test_compression_disabled_increases_uplink():
    with_comp = run_offload_session(
        GTA_SAN_ANDREAS, LG_NEXUS_5,
        config=GBoosterConfig(compression_enabled=True),
        duration_ms=DURATION,
    )
    without_comp = run_offload_session(
        GTA_SAN_ANDREAS, LG_NEXUS_5,
        config=GBoosterConfig(compression_enabled=False),
        duration_ms=DURATION,
    )
    assert (
        without_comp.client_stats.uplink_bytes
        > with_comp.client_stats.uplink_bytes
    )


def test_multi_device_state_multicast():
    result = run_offload_session(
        GTA_SAN_ANDREAS, LG_NEXUS_5,
        service_devices=[DELL_OPTIPLEX_9010] * 3,
        duration_ms=DURATION,
    )
    assert result.client_stats.state_bytes_multicast > 0
    # Every node replayed the state batches.
    for node in result.nodes:
        assert node.stats.state_batches > 100


def test_multi_device_contexts_stay_consistent():
    """The §VI-B invariant on the live system: identical digests."""
    result = run_offload_session(
        GTA_SAN_ANDREAS, LG_NEXUS_5,
        service_devices=[NVIDIA_SHIELD, DELL_OPTIPLEX_9010],
        duration_ms=DURATION,
    )
    # Frames scattered across both nodes.
    rendered = [n.stats.frames_rendered for n in result.nodes]
    assert all(r > 0 for r in rendered)


def test_eq4_prefers_faster_node():
    result = run_offload_session(
        GTA_SAN_ANDREAS, LG_NEXUS_5,
        service_devices=[NVIDIA_SHIELD, DELL_OPTIPLEX_9010],
        duration_ms=DURATION,
    )
    by_name = {n.name: n.stats.frames_rendered for n in result.nodes}
    pc_frames = next(
        v for k, v in by_name.items() if "Optiplex" in k
    )
    shield_frames = next(v for k, v in by_name.items() if "Shield" in k)
    # Both serve; the faster node (PC at G1's high change) gets more work.
    assert pc_frames > 0 and shield_frames > 0


def test_round_robin_splits_evenly():
    result = run_offload_session(
        GTA_SAN_ANDREAS, LG_NEXUS_5,
        service_devices=[DELL_OPTIPLEX_9010] * 2,
        config=GBoosterConfig(scheduler="round_robin"),
        duration_ms=DURATION,
    )
    counts = [n.stats.frames_rendered for n in result.nodes]
    assert abs(counts[0] - counts[1]) <= 2


def test_frames_presented_in_order():
    result = run_offload_session(
        GTA_SAN_ANDREAS, LG_NEXUS_5,
        service_devices=[NVIDIA_SHIELD, DELL_OPTIPLEX_9010],
        duration_ms=DURATION,
    )
    frames = [f for f in result.engine.frames if f.presented_at is not None]
    presented_order = sorted(frames, key=lambda f: f.presented_at)
    ids = [f.frame_id for f in presented_order]
    assert ids == sorted(ids)


def test_redispatch_weighs_the_base_fill(monkeypatch):
    """Eq. 4 re-dispatch offers the scheduler the fill a fresh dispatch
    would, not the fill the failed node inflated on arrival."""
    offered = []
    redispatch = GBoosterClient._redispatch

    def spy(self, request):
        choose = self.scheduler.choose

        def record(workload, estimates):
            offered.append(
                (workload, base_fill(request), request.fill_megapixels)
            )
            return choose(workload, estimates)

        self.scheduler.choose = record
        try:
            redispatch(self, request)
        finally:
            del self.scheduler.choose

    monkeypatch.setattr(GBoosterClient, "_redispatch", spy)
    run_offload_session(
        GTA_SAN_ANDREAS, LG_G5,
        service_devices=[NVIDIA_SHIELD, DELL_M4600, DELL_OPTIPLEX_9010],
        config=GBoosterConfig(
            frame_timeout_ms=300.0,
            faults=FaultSchedule().crash(at_ms=1_500.0, node=0),
        ),
        duration_ms=3_000.0, seed=1,
    )
    # Some re-dispatched requests had reached the failed node.
    assert any(fill != base for _, base, fill in offered)
    assert all(workload == base for workload, base, _ in offered)


def test_a_presented_request_drops_its_wire_message(monkeypatch):
    """The wire message points back at its request; presentation ends
    the only reader, so the request lets it go."""
    presented = []
    complete = GBoosterClient._complete_request

    def spy(self, request):
        complete(self, request)
        presented.append(request)

    monkeypatch.setattr(GBoosterClient, "_complete_request", spy)
    result = run_offload_session(
        GTA_SAN_ANDREAS, LG_NEXUS_5, duration_ms=1_500.0, seed=2,
    )
    assert len(presented) >= result.client_stats.frames_presented > 10
    assert not any("wire_message" in r.metadata for r in presented)


def test_redispatch_after_a_crash_finds_every_wire_message(monkeypatch):
    """Frames outstanding on a crashed node still carry their wire
    message, so each re-sends to a surviving node, none renders locally."""
    found = []
    redispatch = GBoosterClient._redispatch

    def spy(self, request):
        found.append(request.metadata.get("wire_message") is not None)
        redispatch(self, request)

    monkeypatch.setattr(GBoosterClient, "_redispatch", spy)
    result = run_offload_session(
        GTA_SAN_ANDREAS, LG_G5,
        service_devices=[NVIDIA_SHIELD, DELL_OPTIPLEX_9010],
        config=GBoosterConfig(
            frame_timeout_ms=300.0,
            faults=FaultSchedule().crash(at_ms=1_000.0, node=0),
        ),
        duration_ms=2_500.0, seed=1,
    )
    assert found and all(found)
    assert len(result.engine.sim.spans.by_name("redispatch")) == len(found)
