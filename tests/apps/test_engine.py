"""Game engine frame loop with the local backend."""

import pytest

from repro.apps.engine import EngineConfig, GameEngine, driver_submit_ms
from repro.apps.games import CANDY_CRUSH, GTA_SAN_ANDREAS
from repro.baselines.local import LocalBackend
from repro.devices.profiles import LG_G5, LG_NEXUS_5
from repro.devices.runtime import UserDeviceRuntime
from repro.sim.kernel import Simulator


def run_local(app, device_spec, duration_ms=20_000.0, seed=0):
    sim = Simulator(seed=seed)
    device = UserDeviceRuntime(
        sim, device_spec, render_width=app.render_width,
        render_height=app.render_height,
    )
    backend = LocalBackend(sim, device)
    engine = GameEngine(
        sim, app, device, backend, EngineConfig(duration_ms=duration_ms)
    )
    engine.run(limit=duration_ms * 3)
    return engine, device


def test_frames_produced_and_presented():
    engine, _device = run_local(GTA_SAN_ANDREAS, LG_NEXUS_5)
    presented = engine.presented_frames()
    assert len(presented) > 100
    assert all(f.presented_at >= f.issued_at for f in presented)


def test_gpu_bound_game_fps_matches_fillrate():
    engine, _device = run_local(GTA_SAN_ANDREAS, LG_NEXUS_5)
    from repro.metrics.fps import compute_fps_metrics

    metrics = compute_fps_metrics(engine.presented_frames())
    assert metrics.median_fps == pytest.approx(23.0, abs=1.5)


def test_vsync_caps_frame_rate():
    engine, _device = run_local(CANDY_CRUSH, LG_G5)
    from repro.metrics.fps import compute_fps_metrics

    metrics = compute_fps_metrics(engine.presented_frames())
    assert metrics.median_fps <= CANDY_CRUSH.target_fps + 1


def test_frame_records_carry_exogenous_signals():
    engine, _device = run_local(GTA_SAN_ANDREAS, LG_NEXUS_5,
                                duration_ms=30_000.0)
    frames = engine.frames
    assert any(f.touches_since_last > 0 for f in frames)
    assert all(f.texture_count > 0 for f in frames)
    assert any(f.command_diff > 0 for f in frames)


def test_cpu_load_attributed_during_session():
    engine, device = run_local(GTA_SAN_ANDREAS, LG_NEXUS_5)
    # During the paper's G1 local run the Nexus 5 sits around 68%.
    assert 0.55 < device.cpu.mean_utilization() < 0.8


def test_faster_cpu_reduces_stage_time():
    _engine_slow, device_slow = run_local(CANDY_CRUSH, LG_NEXUS_5)
    _engine_fast, device_fast = run_local(CANDY_CRUSH, LG_G5)
    # Same busy work on a faster CPU -> lower mean utilization.
    assert (
        device_fast.cpu.mean_utilization()
        < device_slow.cpu.mean_utilization()
    )


def test_driver_cost_scales_with_commands():
    assert driver_submit_ms(900) > driver_submit_ms(300)


def test_deterministic_sessions():
    a, _ = run_local(GTA_SAN_ANDREAS, LG_NEXUS_5, duration_ms=10_000.0, seed=3)
    b, _ = run_local(GTA_SAN_ANDREAS, LG_NEXUS_5, duration_ms=10_000.0, seed=3)
    assert [f.presented_at for f in a.presented_frames()] == [
        f.presented_at for f in b.presented_frames()
    ]


def test_different_seeds_differ():
    a, _ = run_local(GTA_SAN_ANDREAS, LG_NEXUS_5, duration_ms=10_000.0, seed=1)
    b, _ = run_local(GTA_SAN_ANDREAS, LG_NEXUS_5, duration_ms=10_000.0, seed=2)
    assert [f.presented_at for f in a.presented_frames()] != [
        f.presented_at for f in b.presented_frames()
    ]


def test_engine_finishes_and_drains():
    engine, _ = run_local(GTA_SAN_ANDREAS, LG_NEXUS_5, duration_ms=5_000.0)
    assert engine.finished.triggered
    assert not engine._inflight
