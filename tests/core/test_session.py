"""End-to-end offload sessions: the paper's headline behaviours."""

import pytest

from repro.apps.games import CANDY_CRUSH, GTA_SAN_ANDREAS
from repro.core.config import GBoosterConfig
from repro.core.session import run_local_session, run_offload_session
from repro.devices.profiles import (
    DELL_OPTIPLEX_9010,
    LG_G5,
    LG_NEXUS_5,
    NVIDIA_SHIELD,
)

DURATION = 30_000.0


@pytest.fixture(scope="module")
def g1_local_n5():
    return run_local_session(GTA_SAN_ANDREAS, LG_NEXUS_5,
                             duration_ms=DURATION)


@pytest.fixture(scope="module")
def g1_boost_n5():
    return run_offload_session(GTA_SAN_ANDREAS, LG_NEXUS_5,
                               duration_ms=DURATION)


class TestAcceleration:
    def test_old_device_action_game_boosted(self, g1_local_n5, g1_boost_n5):
        """The headline: G1 on the Nexus 5 gains dramatically."""
        assert g1_local_n5.fps.median_fps == pytest.approx(23.0, abs=1.5)
        assert g1_boost_n5.fps.median_fps >= g1_local_n5.fps.median_fps * 1.35

    def test_gpu_idles_when_offloaded(self, g1_boost_n5):
        assert g1_boost_n5.gpu_mean_utilization < 0.05

    def test_new_device_barely_benefits(self):
        local = run_local_session(GTA_SAN_ANDREAS, LG_G5,
                                  duration_ms=DURATION)
        boosted = run_offload_session(GTA_SAN_ANDREAS, LG_G5,
                                      duration_ms=DURATION)
        gain = boosted.fps.median_fps - local.fps.median_fps
        assert abs(gain) <= 5.0

    def test_puzzle_game_small_gain(self):
        local = run_local_session(CANDY_CRUSH, LG_NEXUS_5,
                                  duration_ms=DURATION)
        boosted = run_offload_session(CANDY_CRUSH, LG_NEXUS_5,
                                      duration_ms=DURATION)
        assert abs(
            boosted.fps.median_fps - local.fps.median_fps
        ) <= 4.0


class TestEnergy:
    def test_offloading_saves_energy(self, g1_local_n5, g1_boost_n5):
        ratio = (
            g1_boost_n5.energy.mean_power_w / g1_local_n5.energy.mean_power_w
        )
        assert ratio < 0.75

    def test_switching_beats_always_wifi(self):
        predictive = run_offload_session(
            GTA_SAN_ANDREAS, LG_NEXUS_5,
            config=GBoosterConfig(switching_policy="predictive"),
            duration_ms=DURATION,
        )
        always_wifi = run_offload_session(
            GTA_SAN_ANDREAS, LG_NEXUS_5,
            config=GBoosterConfig(switching_policy="always_wifi"),
            duration_ms=DURATION,
        )
        assert (
            predictive.energy.mean_power_w < always_wifi.energy.mean_power_w
        )
        assert predictive.switching.bluetooth_residency > 0.3


class TestResponseTime:
    def test_response_below_human_threshold(self, g1_boost_n5):
        """§VII-B: all offloaded responses stay well under the ~100 ms
        human-perception threshold."""
        assert g1_boost_n5.response_time_ms < 60.0

    def test_t_p_positive_for_offload(self, g1_boost_n5, g1_local_n5):
        assert g1_boost_n5.t_p_ms > 0
        assert g1_local_n5.t_p_ms == 0.0


class TestMultiDevice:
    def test_more_devices_raise_fps_then_saturate(self):
        fps = {}
        for n in (1, 3):
            result = run_offload_session(
                GTA_SAN_ANDREAS, LG_NEXUS_5,
                service_devices=[DELL_OPTIPLEX_9010] * n,
                duration_ms=DURATION,
            )
            fps[n] = result.fps.median_fps
        assert fps[3] > fps[1] + 5.0

    def test_saturation_beyond_three(self):
        three = run_offload_session(
            GTA_SAN_ANDREAS, LG_NEXUS_5,
            service_devices=[DELL_OPTIPLEX_9010] * 3,
            duration_ms=DURATION,
        )
        five = run_offload_session(
            GTA_SAN_ANDREAS, LG_NEXUS_5,
            service_devices=[DELL_OPTIPLEX_9010] * 5,
            duration_ms=DURATION,
        )
        assert five.fps.median_fps <= three.fps.median_fps + 3.0


class TestDeterminism:
    def test_same_seed_reproduces_session(self):
        a = run_offload_session(GTA_SAN_ANDREAS, LG_NEXUS_5,
                                duration_ms=10_000.0, seed=11)
        b = run_offload_session(GTA_SAN_ANDREAS, LG_NEXUS_5,
                                duration_ms=10_000.0, seed=11)
        assert a.fps.median_fps == b.fps.median_fps
        assert a.energy.total_j == pytest.approx(b.energy.total_j)
        assert a.traffic_samples_mbps == b.traffic_samples_mbps


class TestTransportAblation:
    def test_tcp_transport_raises_response_time(self):
        rudp = run_offload_session(
            GTA_SAN_ANDREAS, LG_NEXUS_5,
            config=GBoosterConfig(transport="rudp"),
            duration_ms=20_000.0,
        )
        tcp = run_offload_session(
            GTA_SAN_ANDREAS, LG_NEXUS_5,
            config=GBoosterConfig(transport="tcp"),
            duration_ms=20_000.0,
        )
        assert tcp.t_p_ms > rudp.t_p_ms + 30.0


class TestBlockingSwapAblation:
    def test_async_swap_outperforms_blocking(self):
        async_swap = run_offload_session(
            GTA_SAN_ANDREAS, LG_NEXUS_5,
            config=GBoosterConfig(async_swap=True),
            duration_ms=20_000.0,
        )
        blocking = run_offload_session(
            GTA_SAN_ANDREAS, LG_NEXUS_5,
            config=GBoosterConfig(async_swap=False),
            duration_ms=20_000.0,
        )
        assert async_swap.fps.median_fps > blocking.fps.median_fps


class TestPlannerPolicy:
    def test_planner_session_runs_and_commits(self):
        result = run_offload_session(
            GTA_SAN_ANDREAS, LG_NEXUS_5,
            service_devices=[NVIDIA_SHIELD],
            config=GBoosterConfig(
                switching_policy="planner", telemetry=True,
                fusion_enabled=True, planner_probe_frames=6,
            ),
            duration_ms=8_000.0,
        )
        # A healthy LAN commits a WiFi-family plan; the session starts on
        # Bluetooth and the policy raises the committed radio.
        assert result.switching.switches_to_wifi >= 1
        assert result.fps.median_fps > 20.0

    def test_planner_session_is_seed_stable(self):
        def run():
            return run_offload_session(
                GTA_SAN_ANDREAS, LG_NEXUS_5,
                service_devices=[NVIDIA_SHIELD],
                config=GBoosterConfig(
                    switching_policy="planner", telemetry=True,
                    planner_probe_frames=6,
                ),
                duration_ms=6_000.0, seed=42,
            )

        a, b = run(), run()
        assert a.fps.median_fps == b.fps.median_fps
        assert a.switching.epochs_on_wifi == b.switching.epochs_on_wifi


def test_frame_path_runs_without_stage_processes(monkeypatch):
    """Every stage serves as callbacks: a 1 s offload session schedules
    only plain callables, never a generator, and the frame loop, the
    radios, the GPUs and the service daemon are among them."""
    import inspect

    from repro.sim.kernel import Event, Simulator

    scheduled = set()
    call_later, on_trigger = Simulator.call_later, Event.on_trigger

    def record(fn):
        fn = getattr(fn, "func", fn)  # functools.partial
        assert not inspect.isgeneratorfunction(fn), fn
        scheduled.add(getattr(fn, "__qualname__", repr(fn)))

    def recording_call_later(self, delay, fn, *args):
        record(fn)
        return call_later(self, delay, fn, *args)

    def recording_on_trigger(self, fn, *args):
        record(fn)
        return on_trigger(self, fn, *args)

    monkeypatch.setattr(Simulator, "call_later", recording_call_later)
    monkeypatch.setattr(Event, "on_trigger", recording_on_trigger)
    result = run_offload_session(
        GTA_SAN_ANDREAS, LG_NEXUS_5, [NVIDIA_SHIELD, DELL_OPTIPLEX_9010],
        duration_ms=1_000.0,
    )
    assert result.client_stats.frames_presented > 0
    stages = {
        "GameEngine._start", "GameEngine._pace", "GameEngine._swap",
        "WirelessInterface._sent", "ServiceNode._decoded", "GPUDevice._fill",
    }
    assert stages <= scheduled


@pytest.mark.parametrize("runner", ["local", "offload"])
def test_an_engine_that_never_finishes_raises(monkeypatch, runner):
    """A session whose frames never complete stops at its time limit
    (four session lengths) with a SimulationError, not with a result."""
    from repro.baselines.local import LocalBackend
    from repro.core.client import GBoosterClient
    from repro.sim.kernel import SimulationError

    def stalled(self, request, frame):
        return self.sim.event(name="never")

    backend = LocalBackend if runner == "local" else GBoosterClient
    monkeypatch.setattr(backend, "submit", stalled)
    run = run_local_session if runner == "local" else run_offload_session
    with pytest.raises(SimulationError, match="did not finish by t=800"):
        run(GTA_SAN_ANDREAS, LG_NEXUS_5, duration_ms=200.0)


class TestRejectedInputs:
    """A session that could not run sensibly is refused before its
    simulator exists; ``Simulator`` raises here if it is ever built."""

    @pytest.fixture(autouse=True)
    def no_simulator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Simulator was built for a bad input")

        monkeypatch.setattr("repro.core.session.Simulator", refuse)

    @pytest.mark.parametrize("rto_ms", [0.0, -5.0, float("nan")])
    def test_bad_rto(self, rto_ms):
        with pytest.raises(ValueError, match="rto_ms"):
            run_offload_session(
                GTA_SAN_ANDREAS, LG_NEXUS_5,
                config=GBoosterConfig(rto_ms=rto_ms), duration_ms=100.0,
            )

    @pytest.mark.parametrize("runner", ["local", "offload"])
    @pytest.mark.parametrize(
        "duration_ms", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_bad_duration(self, runner, duration_ms):
        run = run_local_session if runner == "local" else run_offload_session
        with pytest.raises(ValueError, match="duration_ms"):
            run(GTA_SAN_ANDREAS, LG_NEXUS_5, duration_ms=duration_ms)

    def test_empty_service_devices(self):
        with pytest.raises(ValueError, match="service_devices"):
            run_offload_session(
                GTA_SAN_ANDREAS, LG_NEXUS_5, service_devices=[],
                duration_ms=100.0,
            )
