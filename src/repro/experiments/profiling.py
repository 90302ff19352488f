"""The profiling harness behind ``python -m repro profile``.

Measures the offload pipeline's per-stage latency breakdown in simulated
time, writing two artifacts:

* ``BENCH_PIPELINE.json`` — per-stage p50/p95/p99 for the frame pipeline
  (intercept / encode / transmit / execute / video_encode / return /
  present) and the session's counter/gauge/histogram snapshot, plus the
  fleet smoke run's span summary.  Everything is deterministic per seed
  and carries a sha256 digest.
* ``BENCH_TRACE.json`` — a Chrome trace-event export of the fleet smoke
  run, loadable in Perfetto / ``chrome://tracing``.

The simulator's own wall time is measured by ``python3 -m bench``, not
here.  :data:`SPEC` gates the artifact like every other experiment: the
CLI exits non-zero on schema drift, lost trace span categories, a
same-seed mismatch or a drift from the committed baseline.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.apps.games import GAMES
from repro.core.session import run_offload_session
from repro.devices.profiles import LG_G5, NVIDIA_SHIELD
from repro.experiments.fleet import run_fleet_point
from repro.experiments.gate import BenchSpec, seal, write_chrome
from repro.metrics.spans import PIPELINE_STAGES, pipeline_breakdown
from repro.obs.export import chrome_trace, trace_categories
from repro.sim.kernel import Simulator

#: artifact schema identifier, bumped on incompatible changes
BENCH_SCHEMA = "repro.bench_pipeline/1"

#: stages the artifact must always report (acceptance-gated subset)
REQUIRED_STAGES = ("intercept", "encode", "transmit", "execute", "present")

#: the fleet smoke trace must keep at least this many span categories
MIN_TRACE_CATEGORIES = 6


# -- simulated-time pipeline breakdown ---------------------------------------


def bench_session(duration_ms: float, seed: int) -> Dict[str, Any]:
    """End-to-end offload session -> its deterministic summary."""
    result = run_offload_session(
        GAMES["G3"], LG_G5, [NVIDIA_SHIELD],
        duration_ms=duration_ms, seed=seed,
    )
    sim = result.engine.sim
    return {
        "pipeline_stages": pipeline_breakdown(sim.spans),
        "metrics": sim.metrics.snapshot(),
        "span_count": len(sim.spans),
        "span_categories": sim.spans.categories(),
        "frames_presented": result.fps.frame_count,
        "median_fps": round(result.fps.median_fps, 4),
    }


def bench_fleet(
    duration_ms: float, seed: int
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Fleet smoke run (with a crash/rejoin so migration and membership
    spans appear); returns (deterministic summary, Chrome trace)."""
    sim = Simulator(seed=seed)
    point, _report = run_fleet_point(
        n_sessions=8, n_devices=3, duration_ms=duration_ms,
        seed=seed, crash=True, sim=sim,
    )
    trace = chrome_trace(
        sim.spans, metadata={"run": "fleet_smoke", "seed": seed}
    )
    deterministic = {
        "span_count": len(sim.spans),
        "span_categories": trace_categories(trace),
        "queue_wait": pipeline_breakdown(sim.spans).get("queue_wait", {}),
        "metrics": sim.metrics.snapshot(),
        "frames": point.frames,
        "frames_lost": point.frames_lost,
        "migrations": point.migrations,
        "report_digest": point.digest,
    }
    return deterministic, trace


# -- the artifact ------------------------------------------------------------


def run_profile(seed: int = 0, smoke: bool = False) -> Dict[str, Any]:
    """Run both benches and assemble the BENCH_PIPELINE artifact.

    The fleet run's Chrome trace rides alongside under ``chrome``; the
    gate writes it to ``--trace-out``.
    """
    session_ms = 3_000.0 if smoke else 20_000.0
    fleet_ms = 1_500.0 if smoke else 6_000.0
    session = bench_session(session_ms, seed)
    fleet, trace = bench_fleet(fleet_ms, seed)
    deterministic = {
        "seed": seed,
        "smoke": smoke,
        "session": session,
        "fleet": fleet,
    }
    return {
        "schema": BENCH_SCHEMA,
        "deterministic": seal(deterministic),
        "chrome": trace,
    }


def _checks(det: Dict[str, Any]) -> List[str]:
    """Shape gate for BENCH_PIPELINE's deterministic section."""
    problems: List[str] = []
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
    return problems


def format_bench(bench: Dict[str, Any]) -> str:
    det = bench["deterministic"]
    stages = det["session"]["pipeline_stages"]
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
    lines.append(
        f"fleet trace: {len(det['fleet']['span_categories'])} categories, "
        f"{det['fleet']['span_count']} spans   "
        f"digest: {det['digest'][:16]}…"
    )
    return "\n".join(lines)


SPEC = BenchSpec(
    name="profile",
    schema=BENCH_SCHEMA,
    artifact="BENCH_PIPELINE.json",
    run=lambda seed, smoke, workers: run_profile(seed, smoke),
    checks=_checks,
    format=format_bench,
    side_files=(("--trace-out", "BENCH_TRACE.json", write_chrome),),
    parallel=False,
)
