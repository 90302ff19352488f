"""Closed-form pipeline analysis of GBooster sessions.

The steady-state frame rate of a pipelined system is the reciprocal of its
slowest stage:

* **local**: ``max(CPU stage, GPU fill time)`` under double buffering,
  capped at vsync;
* **offloaded**: ``max(user CPU stage, service stage, round-trip/depth)``
  capped at vsync, where the service stage is decompress + replay + GPU +
  encode serialized on one device (§VI-A's non-preemptive execution), and
  the §VI-A pipeline depth bounds throughput by round-trip time.

These formulas share *no code* with the simulator — they read the cost
constants of :mod:`repro.core.costs` but recompute each stage from the raw
specs — so agreement between the two is a genuine cross-check of the
performance model (see ``tests/analysis/test_cross_validation.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.base import ApplicationSpec
from repro.core import costs
from repro.core.config import GBoosterConfig
from repro.devices.profiles import DeviceSpec

#: mirrors apps.engine driver cost, recomputed here on purpose
_DRIVER_FIXED_MS = 1.0
_DRIVER_PER_COMMAND_US = 6.0
#: LAN one-way latency assumed by the session builder
_LAN_LATENCY_MS = 1.5


def _driver_ms(app: ApplicationSpec) -> float:
    return _DRIVER_FIXED_MS + (
        app.nominal_commands_per_frame * _DRIVER_PER_COMMAND_US / 1000.0
    )


def predict_local_fps(app: ApplicationSpec, device: DeviceSpec) -> float:
    """Double-buffered local execution: 1 / max(cpu, gpu), vsync-capped."""
    perf = device.cpu.perf_index
    cpu_ms = (app.cpu_ms_per_frame + _driver_ms(app)) / perf
    gpu_ms = app.fill_mp_per_frame / device.gpu.fillrate_gpixels
    frame_ms = max(cpu_ms, gpu_ms, 1000.0 / app.target_fps)
    return 1000.0 / frame_ms


def predict_service_stage_ms(
    app: ApplicationSpec,
    service: DeviceSpec,
    mean_change_fraction: float = 0.25,
) -> float:
    """Per-frame service time: decompress + replay + GPU + encode."""
    perf = service.cpu.perf_index
    stage = costs.DECOMPRESS_MS / perf
    stage += (
        app.nominal_commands_per_frame * costs.REPLAY_US_PER_COMMAND
        / 1000.0 / perf
    )
    if not service.cpu.is_arm:
        stage += (
            app.nominal_commands_per_frame
            * costs.ES_TRANSLATE_US_PER_COMMAND / 1000.0 / perf
        )
    stage += (
        app.fill_mp_per_frame * costs.REMOTE_RENDER_OVERHEAD
        / service.gpu.fillrate_gpixels
    )
    encode_throughput = (
        costs.ENCODE_MP_PER_S_ARM
        if service.cpu.is_arm
        else costs.ENCODE_MP_PER_S_X86
    )
    pixels_mp = app.render_width * app.render_height / 1e6
    diff_share = 0.35
    effective_mp = pixels_mp * (
        diff_share + (1.0 - diff_share) * mean_change_fraction
    )
    stage += effective_mp / encode_throughput * 1000.0
    return stage


def _client_cpu_stage_ms(
    app: ApplicationSpec,
    device: DeviceSpec,
    mean_change_fraction: float,
    multi_device: bool,
) -> float:
    perf = device.cpu.perf_index
    stage = app.cpu_ms_per_frame / perf
    if multi_device:
        return stage + costs.DISPATCH_MS_MULTI / perf
    serialize_ms = (
        app.nominal_commands_per_frame * costs.SERIALIZE_US_PER_COMMAND
        / 1000.0
    )
    decode_fraction = 0.35 + 0.65 * mean_change_fraction
    pixels_mp = app.render_width * app.render_height / 1e6
    decode_ms = pixels_mp * decode_fraction / costs.DECODE_MP_PER_S * 1000.0
    return stage + (serialize_ms + decode_ms + costs.DISPATCH_MS) / perf


@dataclass(frozen=True)
class OffloadPrediction:
    fps: float
    binding_stage: str               # "cpu" | "service" | "pipeline" | "vsync"
    cpu_stage_ms: float
    service_stage_ms: float
    round_trip_ms: float
    response_time_ms: float          # Eq. 5 estimate


def predict_offload(
    app: ApplicationSpec,
    user_device: DeviceSpec,
    service_device: DeviceSpec,
    n_devices: int = 1,
    config: Optional[GBoosterConfig] = None,
    mean_change_fraction: float = 0.25,
) -> OffloadPrediction:
    """Steady-state offloaded frame rate and Eq. 5 response time."""
    config = config or GBoosterConfig()
    cpu_ms = _client_cpu_stage_ms(
        app, user_device, mean_change_fraction, n_devices > 1
    )
    service_ms = predict_service_stage_ms(
        app, service_device, mean_change_fraction
    )
    effective_service_ms = service_ms / n_devices
    # Round trip: cpu already pipelined out; transmission + service + links.
    pixels_mp = app.render_width * app.render_height / 1e6
    depth = config.pipeline_depth()
    round_trip = (
        2 * _LAN_LATENCY_MS
        + service_ms
        + 4.0   # uplink + downlink serialization, order-of-magnitude
    )
    stages = {
        "cpu": cpu_ms,
        "service": effective_service_ms,
        "pipeline": round_trip / depth,
        "vsync": 1000.0 / app.target_fps,
    }
    binding_stage, frame_ms = max(stages.items(), key=lambda kv: kv[1])
    fps = 1000.0 / frame_ms
    encode_ms = (
        pixels_mp * (0.35 + 0.65 * mean_change_fraction)
        / (
            costs.ENCODE_MP_PER_S_ARM
            if service_device.cpu.is_arm
            else costs.ENCODE_MP_PER_S_X86
        )
        * 1000.0
    )
    t_p = 2 * _LAN_LATENCY_MS + 4.0 + encode_ms
    return OffloadPrediction(
        fps=fps,
        binding_stage=binding_stage,
        cpu_stage_ms=cpu_ms,
        service_stage_ms=service_ms,
        round_trip_ms=round_trip,
        response_time_ms=1000.0 / fps + t_p,
    )
