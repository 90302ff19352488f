"""Experiment C1: traffic-redundancy elimination (paper §V-A).

Reproduces the section's quantitative claims on real bytes and pixels:

* unoptimized offload traffic is enormous (~200 Mbps even at 600x480,
  25 FPS);
* the LRU command cache plus LZ4-class compression removes the bulk of the
  command-stream redundancy (the paper quotes ~70% for the compressor);
* the Turbo incremental image codec reaches high ratios (up to 25:1) at
  ~90 MP/s, while x264 on ARM manages ~1 MP/s — far below the ~7 MP/s the
  application produces, ruling out real-time video encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.apps.base import ApplicationSpec, CommandBatchBuilder, SceneState
from repro.apps.games import CANDY_CRUSH, GTA_SAN_ANDREAS
from repro.codec.frames import SyntheticFrameSource
from repro.codec.lz77 import compress
from repro.codec.pipeline import (
    LZ77_MAX_CHAIN,
    CommandPipeline,
    PipelineConfig,
)
from repro.codec.turbo import TurboEncoder
from repro.codec.video import VideoEncoderModel, X264_ARM
from repro.sim.random import RandomStream


@dataclass
class RawTrafficEstimate:
    """Unoptimized traffic at a given setting (paper: ~200 Mbps)."""

    width: int
    height: int
    fps: float
    raw_image_mbps: float
    raw_command_mbps: float

    @property
    def total_mbps(self) -> float:
        return self.raw_image_mbps + self.raw_command_mbps


def estimate_raw_traffic(
    width: int = 600,
    height: int = 480,
    fps: float = 25.0,
    app: ApplicationSpec = GTA_SAN_ANDREAS,
    frames: int = 120,
    seed: int = 0,
) -> RawTrafficEstimate:
    """Measure the unoptimized stream: raw RGB frames + raw commands."""
    raw_image_mbps = width * height * 3 * 8 * fps / 1e6
    # Serialize real command batches without cache or compression.
    pipeline = CommandPipeline(
        PipelineConfig(cache_enabled=False, compression_enabled=False)
    )
    builder = CommandBatchBuilder(app, RandomStream(seed, "traffic.raw"))
    scene = SceneState()
    pipeline.process_frame(builder.setup_commands())
    total = 0
    for i in range(frames):
        scene.activity = 0.5
        egress = pipeline.process_frame(builder.frame_commands(scene))
        total += egress.wire_bytes * app.stream_scale
    raw_command_mbps = total / frames * 8 * fps / 1e6
    return RawTrafficEstimate(
        width=width, height=height, fps=fps,
        raw_image_mbps=raw_image_mbps,
        raw_command_mbps=raw_command_mbps,
    )


@dataclass
class CommandReductionResult:
    raw_bytes: int
    after_cache_bytes: int
    wire_bytes: int
    cache_hit_rate: float
    lz_only_ratio: float           # LZ4-class compression on the raw stream

    @property
    def overall_reduction(self) -> float:
        return 1.0 - self.wire_bytes / self.raw_bytes if self.raw_bytes else 0.0


def measure_command_reduction(
    app: ApplicationSpec = GTA_SAN_ANDREAS,
    frames: int = 200,
    seed: int = 0,
) -> CommandReductionResult:
    """Cache + LZ4 pipeline on a real command stream."""
    pipeline = CommandPipeline(
        PipelineConfig(cache_enabled=True, compression_enabled=True,
                       modelled_compression=False)
    )
    builder = CommandBatchBuilder(app, RandomStream(seed, "traffic.opt"))
    scene = SceneState()
    pipeline.process_frame(builder.setup_commands())
    raw_stream = bytearray()
    for i in range(frames):
        scene.activity = 0.25 if i % 7 else 0.8
        batch = builder.frame_commands(scene)
        # Raw serialized stream for the LZ-only measurement.
        from repro.gles.serialization import CommandSerializer

        ser = CommandSerializer()
        for cmd in batch:
            for wire in ser.feed(cmd):
                raw_stream += wire
        pipeline.process_frame(batch)
    lz_ratio = (
        len(compress(bytes(raw_stream), max_chain=LZ77_MAX_CHAIN)) / len(raw_stream)
        if raw_stream
        else 1.0
    )
    return CommandReductionResult(
        raw_bytes=pipeline.total_raw,
        after_cache_bytes=pipeline.total_after_cache,
        wire_bytes=pipeline.total_wire,
        cache_hit_rate=pipeline.cache.hit_rate,
        lz_only_ratio=lz_ratio,
    )


@dataclass
class ImageCodecResult:
    turbo_ratio: float
    turbo_throughput_mp_s: float
    x264_arm_throughput_mp_s: float
    frame_generation_mp_s: float
    x264_keeps_up: bool
    turbo_keeps_up: bool


def measure_image_codecs(
    width: int = 640,
    height: int = 480,
    fps: float = 25.0,
    frames: int = 40,
    motion_px: float = 12.0,
    detail: float = 0.9,
    sprite_count: int = 18,
    seed: int = 0,
    x264: VideoEncoderModel = X264_ARM,
) -> ImageCodecResult:
    """Turbo vs x264 on real synthetic pixels (a busy action scene)."""
    source = SyntheticFrameSource(
        width=width, height=height, motion_px=motion_px, detail=detail,
        sprite_count=sprite_count, seed=seed,
    )
    encoder = TurboEncoder()
    for frame in source.frames(frames):
        encoder.encode_array(frame)
    generation_mp_s = width * height * fps / 1e6
    return ImageCodecResult(
        turbo_ratio=encoder.stats.compression_ratio,
        turbo_throughput_mp_s=encoder.throughput_mp_s,
        x264_arm_throughput_mp_s=x264.throughput_mp_s,
        frame_generation_mp_s=generation_mp_s,
        x264_keeps_up=x264.keeps_up(width, height, fps),
        turbo_keeps_up=encoder.throughput_mp_s >= generation_mp_s,
    )
