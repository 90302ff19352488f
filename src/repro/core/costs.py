"""What one frame costs on the offload path: every constant, one formula.

CPU costs are reference-CPU (Snapdragon 800) figures, divided by a CPU's
``perf_index``.  A service device decompresses and replays each batch,
translates it to OpenGL ES on x86 (§IV-C), renders it and Turbo-encodes
the result (§V-A); the phone serializes, decodes and dispatches.  The
service node, the fleet node and the planner's probe price frames here;
:mod:`repro.analysis.pipeline_model` reads the constants but keeps its
own formulas, so it stays an independent check.
"""

from __future__ import annotations

from repro.devices.cpu import CPUSpec

# -- service daemon ---------------------------------------------------------
DECOMPRESS_MS = 1.0
REPLAY_US_PER_COMMAND = 6.0
ES_TRANSLATE_US_PER_COMMAND = 20.0     # ES emulator on x86 (§IV-C)
#: remote replay lacks the app's device-tuned batching and tiling hints,
#: costing extra fill-equivalent work on the service GPU
REMOTE_RENDER_OVERHEAD = 1.28
ENCODE_MP_PER_S_ARM = 90.0             # Turbo on ARM (§V-A)
ENCODE_MP_PER_S_X86 = 300.0
#: serving a replay hit (lookup + patch apply + enqueue) in place of
#: decompress and translation for the recorded interval
REPLAY_HIT_MS = 0.12

# -- client data path --------------------------------------------------------
SERIALIZE_US_PER_COMMAND = 2.2
DECODE_MP_PER_S = 250.0                # Turbo decode on the phone
DISPATCH_MS = 1.5                      # single-device bookkeeping
DISPATCH_MS_MULTI = 0.3                # worker threads absorb the data path


def decode_ms(cpu: CPUSpec, commands: int) -> float:
    """Decompress + per-command replay (+ ES translation on x86)."""
    perf = cpu.perf_index
    ms = DECOMPRESS_MS / perf
    ms += commands * REPLAY_US_PER_COMMAND / 1000.0 / perf
    if not cpu.is_arm:
        ms += commands * ES_TRANSLATE_US_PER_COMMAND / 1000.0 / perf
    return ms


def encode_mp_per_s(cpu: CPUSpec) -> float:
    return ENCODE_MP_PER_S_ARM if cpu.is_arm else ENCODE_MP_PER_S_X86


def frame_ms(
    cpu: CPUSpec,
    commands: int,
    fill_mp: float,
    gpu_mp_per_ms: float,
    pixels: int,
    encode_rate: float,
) -> float:
    """Decode, render ``fill_mp`` remotely, and encode every pixel."""
    return (
        decode_ms(cpu, commands)
        + fill_mp * REMOTE_RENDER_OVERHEAD / max(gpu_mp_per_ms, 1e-9)
        + pixels / (encode_rate * 1000.0)
    )
