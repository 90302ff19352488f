"""Failure injection: service devices dying mid-session.

A real living room is messy — someone powers off the console mid-game.
The client's frame watchdog must detect the silent node, fail pending
frames over to the local GPU, and keep the session alive (degraded, never
frozen).  Faults are scripted through :class:`FaultSchedule` on the
session config — the public API — rather than by patching internals.
"""

import pytest

from repro.apps.games import GTA_SAN_ANDREAS
from repro.core.session import run_offload_session
from repro.devices.profiles import DELL_OPTIPLEX_9010, LG_NEXUS_5, NVIDIA_SHIELD
from repro.faults import FaultSchedule
from repro.metrics.fps import fps_timeline
from repro.sim.kernel import TimerHandle

pytestmark = pytest.mark.slow


def run_with_failure(
    failure_config,
    service_devices,
    fail_at_ms,
    fail_index=0,
    duration_ms=40_000.0,
    timeout_ms=600.0,
):
    """Run an offload session with one node crashing mid-way."""
    config = failure_config(
        timeout_ms=timeout_ms,
        faults=FaultSchedule().crash(at_ms=fail_at_ms, node=fail_index),
    )
    return run_offload_session(
        GTA_SAN_ANDREAS, LG_NEXUS_5,
        service_devices=service_devices,
        config=config,
        duration_ms=duration_ms,
    )


def test_single_node_failure_falls_back_to_local(failure_config):
    result = run_with_failure(failure_config, [NVIDIA_SHIELD],
                              fail_at_ms=15_000.0)
    stats = result.client_stats
    assert stats.nodes_failed == 1
    assert stats.failovers > 10
    # The session survives the whole duration.
    assert result.fps.frame_count > 300
    presented = [
        f.presented_at
        for f in result.engine.frames
        if f.presented_at is not None
    ]
    assert max(presented) > 35_000.0


def test_fps_degrades_to_local_rate_after_failure(failure_config):
    result = run_with_failure(failure_config, [NVIDIA_SHIELD],
                              fail_at_ms=20_000.0, duration_ms=45_000.0)
    times = [
        f.presented_at
        for f in result.engine.frames
        if f.presented_at is not None
    ]
    series = fps_timeline(times)
    before = series[5:15]           # boosted phase
    after = series[30:42]           # post-failure local phase
    assert sum(before) / len(before) > 32.0
    assert sum(after) / len(after) < 30.0   # back near the 23 FPS local rate


def test_no_frame_is_lost_forever(failure_config):
    """Every issued frame is eventually presented (remote or failover)."""
    result = run_with_failure(failure_config, [NVIDIA_SHIELD],
                              fail_at_ms=10_000.0, duration_ms=30_000.0)
    unpresented = [
        f for f in result.engine.frames if f.presented_at is None
    ]
    assert len(unpresented) == 0


def test_surviving_node_takes_over_in_multi_device_pool(failure_config):
    result = run_with_failure(
        failure_config, [NVIDIA_SHIELD, DELL_OPTIPLEX_9010],
        fail_at_ms=15_000.0,
        fail_index=0, duration_ms=40_000.0,
    )
    stats = result.client_stats
    assert stats.nodes_failed == 1
    # The PC keeps rendering: FPS stays well above local.
    times = [
        f.presented_at
        for f in result.engine.frames
        if f.presented_at is not None and f.presented_at > 25_000.0
    ]
    series = fps_timeline(times)
    assert sum(series) / len(series) > 30.0
    survivor = next(
        n for n in result.nodes if "Optiplex" in n.name
    )
    assert survivor.stats.frames_rendered > 100


def test_healthy_session_has_no_failovers(failure_config):
    result = run_offload_session(
        GTA_SAN_ANDREAS, LG_NEXUS_5, duration_ms=20_000.0,
        config=failure_config(timeout_ms=1_000.0),
    )
    assert result.client_stats.failovers == 0
    assert result.client_stats.nodes_failed == 0


def test_acceptance_scenario_crash_plus_lossy_link(failure_config):
    """The ISSUE acceptance scenario: a node crash at t=15 s layered with a
    lossy-link burst, scripted purely through the public config API."""
    schedule = (
        FaultSchedule()
        .loss_burst(at_ms=5_000.0, duration_ms=4_000.0, loss_probability=0.3)
        .crash(at_ms=15_000.0)
    )
    result = run_offload_session(
        GTA_SAN_ANDREAS, LG_NEXUS_5,
        service_devices=[NVIDIA_SHIELD],
        config=failure_config(faults=schedule),
        duration_ms=35_000.0,
    )
    assert result.client_stats.nodes_failed == 1
    assert result.client_stats.failovers > 0
    # The burst forced the reliable transport to retransmit.
    assert result.engine.sim.spans.by_name("retransmit")
    # Both faults show up in the injector's applied log.
    kinds = {e.kind for e in result.faults.applied()}
    assert kinds == {"loss_burst", "crash"}
    # No frame is lost despite both faults.
    assert all(f.presented_at is not None for f in result.engine.frames)
    # After the crash, the dead node owes the client nothing: the queue
    # drained and no retransmission timer survived the session.
    sim = result.engine.sim
    assert not any(
        isinstance(entry[2], TimerHandle) and entry[2].alive
        and getattr(entry[2].fn, "__name__", "") == "_on_rto"
        for entry in sim._queue
    )


def test_rejoin_restores_boosted_rate(failure_config):
    """A crashed node that rejoins is picked up again by the scheduler."""
    schedule = FaultSchedule().crash(at_ms=10_000.0, rejoin_at_ms=20_000.0)
    result = run_offload_session(
        GTA_SAN_ANDREAS, LG_NEXUS_5,
        service_devices=[NVIDIA_SHIELD],
        config=failure_config(faults=schedule),
        duration_ms=40_000.0,
    )
    times = [
        f.presented_at
        for f in result.engine.frames
        if f.presented_at is not None
    ]
    series = fps_timeline(times)
    local_phase = series[12:19]     # crashed: local GPU rate
    restored = series[25:38]        # rejoined: boosted again
    assert sum(local_phase) / len(local_phase) < 30.0
    assert sum(restored) / len(restored) > 32.0
    assert [e.kind for e in result.faults.applied()] == ["crash", "rejoin"]
