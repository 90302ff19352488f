"""The profiling harness behind ``python -m repro profile``.

Times the simulator's hot paths and measures the offload pipeline's
per-stage latency breakdown, writing two artifacts at the repo root:

* ``BENCH_PIPELINE.json`` — per-stage p50/p95/p99 for the frame pipeline
  (intercept / encode / transmit / execute / video_encode / return /
  present), the session's counter/gauge/histogram snapshot, and
  wall-clock timings for the kernel, serialization, codec and LZ77 hot
  paths.  The simulated-time section is deterministic per seed and
  carries a sha256 digest; wall-clock numbers live in a separate section
  that is explicitly excluded from the digest.
* ``BENCH_TRACE.json`` — a Chrome trace-event export of the fleet smoke
  run, loadable in Perfetto / ``chrome://tracing``.

The harness doubles as the CI schema gate: ``validate_bench`` returns
problems on any drift in the artifact's shape, and the CLI exits non-zero
when validation fails or the fleet trace loses span categories.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Dict, List

from repro.apps.base import CommandBatchBuilder, SceneState
from repro.apps.games import GAMES
from repro.codec.lz77 import compress, decompress
from repro.codec.pipeline import CommandPipeline, PipelineConfig
from repro.core.session import run_offload_session
from repro.devices.profiles import LG_G5, NVIDIA_SHIELD
from repro.experiments.fleet import run_fleet_point
from repro.gles.serialization import CommandSerializer
from repro.metrics.spans import PIPELINE_STAGES, pipeline_breakdown
from repro.obs.export import trace_categories, write_chrome_trace
from repro.sim.kernel import Simulator

#: artifact schema identifier, bumped on incompatible changes
BENCH_SCHEMA = "repro.bench_pipeline/1"

#: stages the artifact must always report (acceptance-gated subset)
REQUIRED_STAGES = ("intercept", "encode", "transmit", "execute", "present")

#: the fleet smoke trace must keep at least this many span categories
MIN_TRACE_CATEGORIES = 6


def _wall(fn) -> tuple:
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# -- micro-benches: wall-clock hot paths -------------------------------------


def bench_kernel(n_processes: int = 200, n_rounds: int = 50) -> Dict[str, Any]:
    """Event-loop throughput: processes ping-ponging timeouts and events."""
    sim = Simulator(seed=0)
    fired = [0]

    def worker(i: int):
        for r in range(n_rounds):
            evt = sim.timeout(0.1 + (i % 7) * 0.01)
            yield evt
            fired[0] += 1

    def build_and_run():
        for i in range(n_processes):
            sim.spawn(worker(i), name=f"bench.{i}")
        sim.run()
        return sim.now

    final_now, wall_s = _wall(build_and_run)
    events = n_processes * n_rounds
    return {
        "processes": n_processes,
        "events": events,
        "final_now_ms": round(final_now, 4),
        "wall_s": round(wall_s, 4),
        "events_per_s": round(events / wall_s, 1) if wall_s > 0 else 0.0,
    }


def _frame_batches(n_frames: int, app_key: str = "G3") -> List[list]:
    sim = Simulator(seed=0)
    spec = GAMES[app_key]
    builder = CommandBatchBuilder(spec, sim.stream("bench.commands"))
    scene = SceneState()
    batches = [builder.setup_commands()]
    for _ in range(n_frames):
        scene.advance(1.0 / 60.0)
        batches.append(builder.frame_commands(scene))
    return batches


def bench_serialization(n_frames: int = 60) -> Dict[str, Any]:
    """Wire-format encoder throughput over realistic frame batches.

    Routes every command through :class:`CommandSerializer` — the
    stateful encoder that resolves deferred vertex pointers — exactly as
    the client's egress pipeline does.
    """
    batches = _frame_batches(n_frames)
    serializer = CommandSerializer()

    def run():
        total = 0
        for batch in batches:
            for cmd in batch:
                for wire in serializer.feed(cmd):
                    total += len(wire)
        return total

    total_bytes, wall_s = _wall(run)
    commands = sum(len(b) for b in batches)
    return {
        "frames": n_frames,
        "commands": commands,
        "bytes": total_bytes,
        "wall_s": round(wall_s, 4),
        "mb_per_s": round(total_bytes / wall_s / 1e6, 2) if wall_s > 0 else 0.0,
    }


def bench_codec(n_frames: int = 60) -> Dict[str, Any]:
    """Full egress pipeline (serialize + cache + compress) throughput."""
    batches = _frame_batches(n_frames)
    pipeline = CommandPipeline(PipelineConfig())

    def run():
        for batch in batches:
            pipeline.process_frame(batch)
        return pipeline.total_wire

    wire_bytes, wall_s = _wall(run)
    return {
        "frames": n_frames,
        "raw_bytes": pipeline.total_raw,
        "wire_bytes": wire_bytes,
        "reduction": round(pipeline.overall_reduction, 4),
        "wall_s": round(wall_s, 4),
        "frames_per_s": round(len(batches) / wall_s, 1) if wall_s > 0 else 0.0,
    }


def bench_lz77(n_frames: int = 60) -> Dict[str, Any]:
    """LZ77 compress and decompress throughput on what the egress
    pipeline feeds the compressor: serialized batches after the cache."""
    pipeline = CommandPipeline(PipelineConfig(compression_enabled=False))
    payloads = [
        pipeline.process_frame(batch).payload
        for batch in _frame_batches(n_frames)
    ]
    chain = pipeline.config.compression_max_chain
    blobs, compress_s = _wall(
        lambda: [compress(p, max_chain=chain) for p in payloads]
    )
    _, decompress_s = _wall(lambda: [decompress(b) for b in blobs])
    raw = sum(len(p) for p in payloads)
    return {
        "frames": len(payloads),
        "raw_bytes": raw,
        "compressed_bytes": sum(len(b) for b in blobs),
        "compress_s": round(compress_s, 4),
        "decompress_s": round(decompress_s, 4),
        "compress_mb_per_s": round(raw / compress_s / 1e6, 2),
        "decompress_mb_per_s": round(raw / decompress_s / 1e6, 2),
    }


# -- macro-benches: simulated-time pipeline breakdown ------------------------


def bench_session(
    duration_ms: float, seed: int
) -> tuple:
    """End-to-end offload session; returns (deterministic, wall_s)."""
    def run():
        return run_offload_session(
            GAMES["G3"], LG_G5, [NVIDIA_SHIELD],
            duration_ms=duration_ms, seed=seed,
        )

    result, wall_s = _wall(run)
    sim = result.engine.sim
    deterministic = {
        "pipeline_stages": pipeline_breakdown(sim.spans),
        "metrics": sim.metrics.snapshot(),
        "span_count": len(sim.spans),
        "span_categories": sim.spans.categories(),
        "frames_presented": result.fps.frame_count,
        "median_fps": round(result.fps.median_fps, 4),
    }
    return deterministic, wall_s


def bench_fleet(
    duration_ms: float, seed: int, trace_path: str
) -> tuple:
    """Fleet smoke run (with a crash/rejoin so migration and membership
    spans appear); exports the Chrome trace and returns (deterministic,
    wall_s, categories)."""
    sim = Simulator(seed=seed)

    def run():
        return run_fleet_point(
            n_sessions=8, n_devices=3, duration_ms=duration_ms,
            seed=seed, crash=True, sim=sim,
        )

    (point, _report), wall_s = _wall(run)
    trace = write_chrome_trace(
        trace_path, sim.spans,
        metadata={"run": "fleet_smoke", "seed": seed},
    )
    categories = trace_categories(trace)
    deterministic = {
        "span_count": len(sim.spans),
        "span_categories": categories,
        "queue_wait": pipeline_breakdown(sim.spans).get("queue_wait", {}),
        "metrics": sim.metrics.snapshot(),
        "frames": point.frames,
        "frames_lost": point.frames_lost,
        "migrations": point.migrations,
        "report_digest": point.digest,
    }
    return deterministic, wall_s, categories


# -- the artifact ------------------------------------------------------------


def run_profile(
    seed: int = 0,
    smoke: bool = False,
    trace_path: str = "BENCH_TRACE.json",
) -> Dict[str, Any]:
    """Run every bench and assemble the BENCH_PIPELINE artifact."""
    session_ms = 3_000.0 if smoke else 20_000.0
    fleet_ms = 1_500.0 if smoke else 6_000.0
    scale = 1 if smoke else 4

    kernel = bench_kernel(n_processes=100 * scale, n_rounds=25 * scale)
    serialization = bench_serialization(n_frames=30 * scale)
    codec = bench_codec(n_frames=30 * scale)
    lz77 = bench_lz77(n_frames=30 * scale)
    session_det, session_wall = bench_session(session_ms, seed)
    fleet_det, fleet_wall, categories = bench_fleet(
        fleet_ms, seed, trace_path
    )

    deterministic = {
        "seed": seed,
        "smoke": smoke,
        "session": session_det,
        "fleet": fleet_det,
    }
    blob = json.dumps(deterministic, sort_keys=True).encode()
    deterministic["digest"] = hashlib.sha256(blob).hexdigest()
    return {
        "schema": BENCH_SCHEMA,
        "deterministic": deterministic,
        "wall_clock": {
            "kernel": kernel,
            "serialization": serialization,
            "codec": codec,
            "lz77": lz77,
            "session_s": round(session_wall, 4),
            "fleet_s": round(fleet_wall, 4),
        },
        "trace": {
            "path": trace_path,
            "categories": categories,
        },
    }


def validate_bench(bench: Any) -> List[str]:
    """Schema gate for BENCH_PIPELINE.json; empty list == valid."""
    problems: List[str] = []
    if not isinstance(bench, dict):
        return [f"top level must be an object, got {type(bench).__name__}"]
    if bench.get("schema") != BENCH_SCHEMA:
        problems.append(f"'schema' must be {BENCH_SCHEMA!r}")
    det = bench.get("deterministic")
    if not isinstance(det, dict):
        return problems + ["missing 'deterministic' section"]
    if not isinstance(det.get("digest"), str):
        problems.append("missing 'deterministic.digest'")
    stages = det.get("session", {}).get("pipeline_stages", {})
    for stage in REQUIRED_STAGES:
        summary = stages.get(stage)
        if not isinstance(summary, dict):
            problems.append(f"missing pipeline stage {stage!r}")
            continue
        for key in ("count", "p50", "p95", "p99"):
            if key not in summary:
                problems.append(f"stage {stage!r} missing {key!r}")
        if stage in ("intercept", "encode", "present") and not summary.get(
            "count"
        ):
            problems.append(f"stage {stage!r} recorded no spans")
    fleet = det.get("fleet", {})
    cats = fleet.get("span_categories", [])
    if len(cats) < MIN_TRACE_CATEGORIES:
        problems.append(
            f"fleet trace has {len(cats)} span categories, need "
            f">= {MIN_TRACE_CATEGORIES}: {cats}"
        )
    wall = bench.get("wall_clock")
    if not isinstance(wall, dict):
        problems.append("missing 'wall_clock' section")
    else:
        for bench_name in ("kernel", "serialization", "codec", "lz77"):
            if not isinstance(wall.get(bench_name), dict):
                problems.append(f"missing wall_clock bench {bench_name!r}")
    return problems


def write_bench(path: str, bench: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")


def format_bench(bench: Dict[str, Any]) -> str:
    det = bench["deterministic"]
    stages = det["session"]["pipeline_stages"]
    wall = bench["wall_clock"]
    lines = [
        f"{'stage':<14} {'count':>6} {'p50':>8} {'p95':>8} {'p99':>8}",
    ]
    for stage in PIPELINE_STAGES:
        s = stages.get(stage, {})
        lines.append(
            f"{stage:<14} {s.get('count', 0):6d} "
            f"{s.get('p50', 0.0):8.3f} {s.get('p95', 0.0):8.3f} "
            f"{s.get('p99', 0.0):8.3f}"
        )
    lines.append("")
    lines.append(
        f"kernel: {wall['kernel']['events_per_s']:.0f} events/s   "
        f"serialization: {wall['serialization']['mb_per_s']:.1f} MB/s   "
        f"codec: {wall['codec']['frames_per_s']:.0f} frames/s   "
        f"lz77: {wall['lz77']['compress_mb_per_s']:.1f} MB/s compress, "
        f"{wall['lz77']['decompress_mb_per_s']:.1f} MB/s decompress"
    )
    lines.append(
        f"fleet trace: {len(det['fleet']['span_categories'])} categories, "
        f"{det['fleet']['span_count']} spans   "
        f"digest: {det['digest'][:16]}…"
    )
    return "\n".join(lines)
