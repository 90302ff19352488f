"""The tutorial's code must actually run (docs-rot guard)."""

import pytest

from repro.apps.base import ApplicationSpec
from repro.devices.cpu import CPUSpec
from repro.devices.profiles import DeviceSpec, LG_NEXUS_5, NVIDIA_SHIELD
from repro.gpu.profiles import GPUSpec

MY_GAME = ApplicationSpec(
    name="My Racing Game", short_name="R1", genre="action",
    package_size_gb=1.2,
    fill_mp_per_frame=130.0,
    cpu_ms_per_frame=18.0, cpu_base_load=0.4,
    nominal_commands_per_frame=800, emitted_commands_per_frame=32,
    textures_per_frame=10,
    render_width=1280, render_height=720,
    base_change_fraction=0.10, burst_change_fraction=0.8, detail=0.7,
    touch_burst_interval_s=5.0, touch_burst_duration_s=1.5,
    touch_rate_in_burst_hz=8.0,
)

MY_PHONE = DeviceSpec(
    name="Acme One", year=2017,
    cpu=CPUSpec(name="Acme SoC", clock_ghz=2.4, cores=8,
                active_power_w=2.6, idle_power_w=0.15, perf_index=1.7),
    gpu=GPUSpec(
        name="Acme GPU", fillrate_gpixels=8.0,
        max_freq_mhz=700, min_freq_mhz=200,
        active_power_w=3.4, idle_power_w=0.1,
        throttle_temp_c=93.0, recover_temp_c=50.0,
        heat_rate_c_per_joule=0.075, cooling_coeff_per_s=0.0045,
    ),
    screen_width=1440, screen_height=2560, memory_mb=6144,
    role="user", battery_wh=12.0,
)


def test_custom_workload_runs_locally():
    import repro

    result = repro.run_local_session(MY_GAME, LG_NEXUS_5,
                                     duration_ms=15_000.0)
    # 130 MP at 3.6 GP/s -> ~27.7 FPS fill-bound.
    assert result.fps.median_fps == pytest.approx(27.7, abs=2.0)


def test_custom_workload_offloads():
    import repro

    result = repro.run_offload_session(MY_GAME, LG_NEXUS_5,
                                       duration_ms=15_000.0)
    assert result.fps.median_fps > 30.0


def test_custom_device_runs():
    import repro

    result = repro.run_local_session(MY_GAME, MY_PHONE,
                                     duration_ms=15_000.0)
    # 130 MP at 8 GP/s -> 16.3 ms; CPU 18/1.7 + driver ~3.4 -> ~14 ms:
    # GPU binds around 61 FPS, capped at vsync 60.
    assert result.fps.median_fps > 45.0


def test_analytic_cross_check_snippet():
    from repro.analysis import predict_local_fps, predict_offload

    local = predict_local_fps(MY_GAME, LG_NEXUS_5)
    assert local == pytest.approx(27.7, abs=1.0)
    prediction = predict_offload(MY_GAME, LG_NEXUS_5, NVIDIA_SHIELD)
    assert prediction.fps > 30.0


def test_acceleration_cell_snippet():
    from repro.experiments.acceleration import run_acceleration_cell

    row = run_acceleration_cell(MY_GAME, MY_PHONE, duration_ms=15_000.0)
    assert row.boosted_fps > 0
    assert row.local_fps > 0


def test_fault_scenario_snippet():
    from repro import FaultSchedule, GBoosterConfig, run_offload_session
    from repro.apps.games import GTA_SAN_ANDREAS

    schedule = (
        FaultSchedule()
        .loss_burst(at_ms=5_000, duration_ms=3_000, loss_probability=0.3)
        .crash(at_ms=15_000, rejoin_at_ms=25_000)
        .degrade_radio(at_ms=30_000, duration_ms=5_000,
                       bandwidth_factor=0.25)
    )
    result = run_offload_session(
        GTA_SAN_ANDREAS, LG_NEXUS_5,
        service_devices=[NVIDIA_SHIELD],
        config=GBoosterConfig(frame_timeout_ms=600.0, faults=schedule),
        duration_ms=40_000,
    )
    kinds = [e.kind for e in result.faults.applied()]
    assert kinds == ["loss_burst", "loss_burst", "crash", "rejoin",
                     "degradation", "degradation"]
    # At least the injected crash; the 0.25x radio window may trip the
    # watchdog a second time.
    assert result.client_stats.nodes_failed >= 1


def test_fleet_walkthrough_snippet():
    """Tutorial §6: registry -> admission -> migration."""
    from repro.apps.games import MODERN_COMBAT
    from repro.experiments.fleet import make_fleet_pool
    from repro.fleet import FleetConfig, FleetController, SessionRequest
    from repro.sim.kernel import Simulator

    sim = Simulator(seed=0)
    controller = FleetController(sim, make_fleet_pool(8), FleetConfig())
    controller.set_session_duration(10_000.0)
    sim.run_until_event(controller.bootstrapped)

    outcome = controller.submit(SessionRequest(
        session_id="alice", app=MODERN_COMBAT, arrival_ms=sim.now))
    assert outcome in ("admit", "queue", "reject")

    sim.run(until=30_000.0)
    report = controller.report()
    assert report["migrations"]["total"] >= 0
    assert report["sessions"]["finished"] == 1
    assert report["tiers"]["action"]["frames_lost"] == 0


def test_fleet_runner_snippet():
    """Tutorial §6: the runner does the walkthrough's steps in one call."""
    from repro.apps.games import GAMES
    from repro.experiments.fleet import make_fleet_pool
    from repro.fleet import Arrival, FleetConfig, FleetRun
    from repro.sim.kernel import Simulator

    apps = list(GAMES.values())
    run = FleetRun(
        Simulator(seed=0), make_fleet_pool(8), FleetConfig(), 10_000.0,
        [Arrival(0.0 if i == 0 else 50.0, f"s{i:03d}", apps[i % len(apps)])
         for i in range(16)],
        spread_ms=800.0,
    )
    report = run.run()
    assert report["sessions"]["finished"] == 16
