"""The SLO harness behind ``python -m repro slo``.

Runs three telemetry-armed scenarios — a clean offload session, the same
session with a mid-run loss burst, and an oversubscribed fleet wave —
evaluates every armed SLO's burn-rate state machine, and writes
``BENCH_SLO.json``: attainments, alert logs, drift-detector state and
per-frame critical-path attribution, all in simulated time so the
artifact is byte-identical across same-seed runs (it carries a sha256
digest over itself).

The harness doubles as a CI gate: :data:`SPEC` runs it through
:func:`repro.experiments.gate.gate`, which diffs the artifact against the
committed baseline (``benchmarks/baselines/BENCH_SLO.json``).  Any drift
fails — a frame p99, an attainment, an SLO state — and the failure names
each value that moved.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.apps.games import GAMES
from repro.core.config import GBoosterConfig
from repro.core.session import run_offload_session
from repro.devices.profiles import LG_NEXUS_5, NVIDIA_SHIELD
from repro.experiments.fleet import run_fleet_point
from repro.experiments.gate import BenchSpec, seal
from repro.faults.schedule import FaultSchedule
from repro.metrics.spans import dominant_stage, pipeline_critical_path
from repro.obs.telemetry import TelemetryHub, default_fleet_slos
from repro.sim.kernel import Simulator

#: artifact schema identifier, bumped on incompatible changes
BENCH_SLO_SCHEMA = "repro.bench_slo/1"

#: objectives the artifact must always evaluate (acceptance-gated)
REQUIRED_SESSION_SLOS = (
    "frame_p99_latency",
    "fps_floor",
    "switch_flap_rate",
    "retransmission_rate",
)
REQUIRED_FLEET_SLOS = ("admission_reject_rate", "admission_wait")


# -- scenarios ---------------------------------------------------------------


def _session_scenario(
    duration_ms: float, seed: int, faults: Optional[FaultSchedule] = None
) -> Dict[str, Any]:
    """One telemetry-armed offload session -> deterministic summary."""
    config = GBoosterConfig(telemetry=True, faults=faults)
    result = run_offload_session(
        GAMES["G3"], LG_NEXUS_5, [NVIDIA_SHIELD],
        config=config, duration_ms=duration_ms, seed=seed,
    )
    sim = result.engine.sim
    critical = pipeline_critical_path(sim.spans)
    return {
        "frames_presented": result.fps.frame_count,
        "median_fps": round(result.fps.median_fps, 4),
        "frame_response": sim.metrics.histogram(
            "client.frame_response_ms"
        ).summary(),
        "critical_path": critical,
        "dominant_stage": dominant_stage(critical),
        "telemetry": result.telemetry.report(),
    }


def run_slo_session(duration_ms: float, seed: int) -> Dict[str, Any]:
    """The clean run: every session SLO should hold."""
    return _session_scenario(duration_ms, seed)


def run_slo_faulted(duration_ms: float, seed: int) -> Dict[str, Any]:
    """The same session through a mid-run loss burst.

    The burst inflates retransmissions and frame latency, so the
    burn-rate machines must leave ``ok`` — this scenario is what proves
    the alerting pipeline actually fires, and it shifts critical-path
    attribution toward the network stages.
    """
    faults = FaultSchedule().loss_burst(
        at_ms=duration_ms * 0.4,
        duration_ms=duration_ms * 0.35,
        loss_probability=0.35,
    )
    return _session_scenario(duration_ms, seed, faults=faults)


def run_slo_fleet(
    duration_ms: float,
    seed: int,
    n_sessions: int = 96,
    n_devices: int = 2,
) -> Dict[str, Any]:
    """An oversubscribed fleet wave with the fleet SLOs armed.

    More sessions than the pool can admit, so the reject-rate objective
    sees real rejections and the admission-wait distribution is fed by
    every admitted session.
    """
    sim = Simulator(seed=seed)
    hub = TelemetryHub(sim, slos=default_fleet_slos())
    point, _report = run_fleet_point(
        n_sessions=n_sessions, n_devices=n_devices,
        duration_ms=duration_ms, seed=seed, crash=False, sim=sim,
    )
    hub.finalize()
    return {
        "sessions": n_sessions,
        "devices": n_devices,
        "admitted": point.admitted,
        "rejected": point.rejected,
        "telemetry": hub.report(),
    }


# -- the artifact ------------------------------------------------------------


def run_slo_bench(
    seed: int = 0, smoke: bool = False, workers: int = 1
) -> Dict[str, Any]:
    """Run every scenario and assemble the BENCH_SLO artifact.

    Everything in the artifact is simulated time — no wall-clock section
    — so two same-seed runs produce byte-identical files.  The scenarios
    are self-contained sims, so ``workers > 1`` fans them across
    processes via :func:`~repro.sim.shard.run_parallel_jobs`; results
    come back in job order, so the artifact stays byte-identical for any
    worker count.
    """
    from repro.sim.shard import run_parallel_jobs

    session_ms = 8_000.0 if smoke else 30_000.0
    fleet_ms = 2_500.0 if smoke else 8_000.0
    session, faulted, fleet = run_parallel_jobs(
        [
            (run_slo_session, (session_ms, seed)),
            (run_slo_faulted, (session_ms, seed)),
            (run_slo_fleet, (fleet_ms, seed)),
        ],
        workers=workers,
    )
    bench: Dict[str, Any] = {
        "seed": seed,
        "smoke": smoke,
        "session": session,
        "faulted_session": faulted,
        "fleet": fleet,
    }
    return {"schema": BENCH_SLO_SCHEMA, "deterministic": seal(bench)}


def _checks(det: Dict[str, Any]) -> List[str]:
    """Semantic gate for BENCH_SLO's deterministic section."""
    problems: List[str] = []
    for scenario, required in (
        ("session", REQUIRED_SESSION_SLOS),
        ("faulted_session", REQUIRED_SESSION_SLOS),
        ("fleet", REQUIRED_FLEET_SLOS),
    ):
        summary = det.get(scenario)
        if not isinstance(summary, dict):
            problems.append(f"missing scenario {scenario!r}")
            continue
        slos = summary.get("telemetry", {}).get("slos", {})
        for name in required:
            if name not in slos:
                problems.append(f"{scenario}: SLO {name!r} not evaluated")
        if not summary.get("telemetry", {}).get("windows_evaluated"):
            problems.append(f"{scenario}: no windows evaluated")
    faulted = det.get("faulted_session", {})
    if isinstance(faulted, dict):
        telemetry = faulted.get("telemetry", {})
        frame_slo = telemetry.get("slos", {}).get("frame_p99_latency", {})
        if not frame_slo.get("bad"):
            problems.append(
                "faulted_session: loss burst produced no bad frame samples"
            )
        if not telemetry.get("alerts"):
            problems.append("faulted_session: loss burst raised no alerts")
    fleet = det.get("fleet", {})
    if isinstance(fleet, dict) and not fleet.get("rejected"):
        problems.append("fleet: overload wave produced no rejections")
    return problems


# -- output ------------------------------------------------------------------


def format_bench(bench: Dict[str, Any]) -> str:
    """The terminal SLO dashboard: one row per objective per scenario."""
    det = bench["deterministic"]
    lines = [
        f"{'scenario':<16} {'slo':<22} {'state':<9} {'attain':>7} "
        f"{'good':>6} {'bad':>5} {'burn_s':>7} {'burn_l':>7}"
    ]
    for scenario in ("session", "faulted_session", "fleet"):
        summary = det.get(scenario, {})
        telemetry = summary.get("telemetry", {})
        for name in sorted(telemetry.get("slos", {})):
            s = telemetry["slos"][name]
            lines.append(
                f"{scenario:<16} {name:<22} {s['state']:<9} "
                f"{s['attainment']:7.4f} {s['good']:6d} {s['bad']:5d} "
                f"{s['burn_short']:7.2f} {s['burn_long']:7.2f}"
            )
        alerts = telemetry.get("alerts", [])
        pages = sum(1 for a in alerts if a.get("severity") == "page")
        extra = ""
        if "dominant_stage" in summary:
            extra = f"   critical path: {summary['dominant_stage']}"
        lines.append(
            f"{scenario:<16} alerts: {len(alerts)} ({pages} page)"
            f"{extra}"
        )
    lines.append(f"digest: {det['digest'][:16]}…")
    return "\n".join(lines)


SPEC = BenchSpec(
    name="slo",
    schema=BENCH_SLO_SCHEMA,
    artifact="BENCH_SLO.json",
    run=run_slo_bench,
    checks=_checks,
    format=format_bench,
)
