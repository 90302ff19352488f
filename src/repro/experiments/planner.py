"""The auto-boost planner bench behind ``python -m repro planner``.

Three sections, all in simulated/modelled time so the
``BENCH_PLANNER.json`` artifact is byte-identical across same-seed runs
and any ``--workers`` count:

1. **Genre-mix matrix** — a grid of session environments (genres ×
   LAN/WAN/degraded-link/co-located conditions) engineered so that every
   static policy (always-local, always-BT, always-WiFi, always-WAN)
   loses at least one cell, while the planner — which probes every
   viable backend and commits to the measured winner — matches the
   per-cell optimum everywhere.  The acceptance gate is the adversarial
   claim itself: no static policy reaches the planner's aggregate
   attainment.
2. **Fusion byte reduction** — per-genre apps run their real command
   batches through the egress pipeline twice (fusion off / fusion on);
   the table reports measured wire bytes per frame and the fused
   reduction.  Gate: fusion strictly reduces bytes for every app and
   never changes the frame count.
3. **Drift drill** — a committed plan's environment degrades mid-session
   (WiFi collapses, the replay store goes cold, live latency steps up);
   the EWMA drift watchdog must fire, the re-probe must move the session
   to a backend that is healthy *under the degraded context*, and the
   post-replan residual must return to band.

The harness doubles as a CI gate: :data:`SPEC` diffs the artifact
against the committed baseline (``benchmarks/baselines/BENCH_PLANNER.json``).
Any drift fails — a planner score, a fused byte count — and the failure
names each value that moved.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.apps.base import CommandBatchBuilder, SceneState
from repro.apps.games import GAMES
from repro.codec.pipeline import CommandPipeline, PipelineConfig
from repro.core.config import GBoosterConfig
from repro.devices.profiles import SERVICE_DEVICES, USER_DEVICES
from repro.experiments.gate import BenchSpec, seal
from repro.net.wan import WAN_BROADBAND, WAN_CONGESTED, WAN_FIBER
from repro.plan import (
    BACKENDS,
    SessionContext,
    SessionPlanner,
    enumerate_candidates,
)
from repro.plan.planner import ReplanController
from repro.sim.random import RandomStream
from repro.sim.shard import run_parallel_jobs

#: artifact schema identifier, bumped on incompatible changes
BENCH_PLANNER_SCHEMA = "repro.bench_planner/1"

#: a policy "matches" a cell when its score is within this of the best
ATTAINMENT_SLACK = 1.001

_WAN_BY_NAME = {
    p.name: p for p in (WAN_BROADBAND, WAN_FIBER, WAN_CONGESTED)
}

#: the static policies the matrix pits the planner against, with the
#: single backend each one is allowed to use
STATIC_POLICIES = {
    "always_local": "local",
    "always_bt": "bt",
    "always_wifi": "wifi",
    "always_wan": "wan",
}

#: the genre-mix matrix: environments engineered so each static policy
#: loses somewhere (the planner should win every cell by construction)
MATRIX_CELLS: List[Dict[str, Any]] = [
    # Heavy action title, healthy LAN: offload wins big; always-local
    # pays the weak phone GPU, always-wan pays 100 ms of WAN RTT.
    {"name": "action_lan", "game": "G1", "user": "LG Nexus 5",
     "service": "Nvidia Shield", "wan": "broadband"},
    # Light puzzle title on a strong phone: local rendering is free of
    # radio energy; every offload pays transmit power for nothing.
    {"name": "puzzle_local", "game": "G5", "user": "LG G5",
     "service": "Minix Neo U1", "wan": "broadband"},
    # WiFi collapsed to 3 Mbps with loss: Bluetooth carries the small
    # stream; always-wifi stalls on retransmissions.
    {"name": "degraded_wifi", "game": "G5", "user": "LG Nexus 5",
     "service": "Nvidia Shield", "wan": None,
     "wifi_mbps": 3.0, "wifi_loss": 0.05},
    # Hotel room: no service device on the LAN, only the WAN path —
    # always-bt and always-wifi have nothing to talk to.
    {"name": "hotel_wan", "game": "G2", "user": "LG Nexus 5",
     "service": None, "wan": "fiber"},
    # Second player of an already-recorded title: the warm replay store
    # serves headers instead of streams.
    {"name": "replay_warm", "game": "G2", "user": "LG Nexus 5",
     "service": "Nvidia Shield", "wan": "broadband",
     "replay_warm": True},
    # Four co-located viewers of one title: one multicast stream
    # amortizes the uplink across the whole party.
    {"name": "multicast_party", "game": "G1", "user": "LG Nexus 5",
     "service": "Nvidia Shield", "wan": "broadband", "viewers": 4},
]


def _cell_context(cell: Dict[str, Any], probe_frames: int) -> SessionContext:
    service = cell.get("service")
    wan = cell.get("wan")
    return SessionContext(
        app=GAMES[cell["game"]],
        user_device=USER_DEVICES[cell["user"]],
        service_device=SERVICE_DEVICES[service] if service else None,
        wan=_WAN_BY_NAME[wan] if wan else None,
        replay_warm=bool(cell.get("replay_warm", False)),
        colocated_viewers=int(cell.get("viewers", 1)),
        wifi_mbps=float(cell.get("wifi_mbps", 120.0)),
        wifi_loss=float(cell.get("wifi_loss", 0.0)),
        config=GBoosterConfig(planner_probe_frames=probe_frames),
    )


def run_matrix_cell(
    cell: Dict[str, Any], seed: int, probe_frames: int
) -> Dict[str, Any]:
    """Probe one environment; score the planner and every static policy."""
    ctx = _cell_context(cell, probe_frames)
    planner = SessionPlanner(ctx, seed=seed)
    decision = planner.probe_and_commit()
    scores = {b: round(s, 6) for b, s in decision.scores.items()}
    viable = set(scores)
    policies: Dict[str, Dict[str, Any]] = {
        "planner": {
            "backend": decision.backend,
            "score": scores[decision.backend],
            "viable": True,
        }
    }
    for policy, backend in STATIC_POLICIES.items():
        policies[policy] = {
            "backend": backend,
            "score": scores.get(backend),
            "viable": backend in viable,
        }
    return {
        "name": cell["name"],
        "game": cell["game"],
        "genre": GAMES[cell["game"]].genre,
        "committed": decision.backend,
        "scores": scores,
        "rejected": dict(sorted(decision.rejected.items())),
        "policies": policies,
        "probes": {
            b: decision.probes[b].to_dict() for b in sorted(decision.probes)
        },
    }


def _matrix_attainment(cells: List[Dict[str, Any]]) -> Dict[str, int]:
    """Cells where each policy is within slack of the per-cell best."""
    attainment = {name: 0 for name in ["planner", *STATIC_POLICIES]}
    for cell in cells:
        best = cell["policies"]["planner"]["score"]
        for name, outcome in cell["policies"].items():
            score = outcome["score"]
            if outcome["viable"] and score is not None and (
                score <= best * ATTAINMENT_SLACK
            ):
                attainment[name] += 1
    return attainment


# -- section 2: measured fusion byte reduction --------------------------------


def run_fusion_point(
    game: str, seed: int, frames: int
) -> Dict[str, Any]:
    """One app's real command batches through the pipeline, both ways."""
    app = GAMES[game]

    def egress_bytes(fused: bool) -> Tuple[float, int, int]:
        # Same stream name for both passes: fused and unfused must see
        # the exact same command batches or the comparison is noise.
        rng = RandomStream(seed, f"planner.fusion.{game}")
        builder = CommandBatchBuilder(app, rng)
        scene = SceneState()
        # Cache and compression off: both downstream stages feed on the
        # same redundancy fusion removes (a repeated setter becomes a
        # tiny cache reference or compresses away), so measuring fusion
        # *through* them conflates the stages and can even show a fused
        # stream growing.  This section isolates what fusion itself
        # removes from the serialized stream.
        pipeline = CommandPipeline(PipelineConfig(
            cache_enabled=False, compression_enabled=False,
            fusion_enabled=fused,
        ))
        pipeline.process_frame(builder.setup_commands(), frame_id=0)
        wire = 0.0
        commands = 0
        dropped = 0
        dt = 1.0 / app.target_fps
        for i in range(frames):
            if i % 7 == 3:
                scene.on_touch(0.8)
            scene.advance(dt)
            egress = pipeline.process_frame(
                builder.frame_commands(scene), frame_id=i + 1
            )
            wire += egress.wire_bytes
            commands += egress.commands
            dropped += egress.fused_dropped
        return wire, commands, dropped

    raw_wire, raw_commands, _ = egress_bytes(fused=False)
    fused_wire, fused_commands, fused_dropped = egress_bytes(fused=True)
    reduction = 1.0 - fused_wire / raw_wire if raw_wire > 0 else 0.0
    return {
        "game": game,
        "genre": app.genre,
        "frames": frames,
        "unfused_bytes_per_frame": round(raw_wire / frames, 2),
        "fused_bytes_per_frame": round(fused_wire / frames, 2),
        "byte_reduction": round(reduction, 4),
        "commands_per_frame": round(raw_commands / frames, 2),
        "fused_dropped_per_frame": round(fused_dropped / frames, 2),
        # Conservation: every command is either transmitted or dropped.
        "command_conservation": fused_commands + fused_dropped == raw_commands,
    }


# -- section 3: the drift drill -----------------------------------------------


def run_drift_drill(
    seed: int, probe_frames: int, epochs: int = 240, degrade_at: int = 60
) -> Dict[str, Any]:
    """Commit, degrade the environment, watch the watchdog re-plan.

    Before ``degrade_at`` the live latency tracks the probed baseline
    (small seeded jitter).  At ``degrade_at`` the WiFi path collapses
    (3 Mbps, 5% loss, replay store cold) and live latency steps +40 ms —
    the committed WiFi-family plan is now mis-committed.  The drill
    records when the detector fires, what the re-probe commits to under
    the degraded context, and whether the post-replan residual returns
    to band (no further replans).
    """
    ctx = SessionContext(
        app=GAMES["G1"],
        user_device=USER_DEVICES["LG Nexus 5"],
        service_device=SERVICE_DEVICES["Nvidia Shield"],
        wan=WAN_BROADBAND,
        replay_warm=True,
        config=GBoosterConfig(planner_probe_frames=probe_frames),
    )
    planner = SessionPlanner(ctx, seed=seed)
    initial = planner.probe_and_commit()
    controller = ReplanController(planner)
    rng = RandomStream(seed, "planner.drill")
    replan_epoch: Optional[int] = None
    post_decision = None
    degraded_latency = 0.0
    for epoch in range(epochs):
        degraded = epoch >= degrade_at
        if degraded and ctx.wifi_mbps > 5.0:
            ctx.wifi_mbps = 3.0
            ctx.wifi_loss = 0.05
            ctx.replay_warm = False
        baseline = planner.committed_latency_ms
        if degraded and controller.replans == 0:
            measured = baseline + 40.0 + rng.normal(0.0, 0.6)
            degraded_latency = measured
        else:
            measured = baseline + rng.normal(0.0, 0.6)
        decision = controller.observe_latency(measured, at_ms=epoch * 100.0)
        if decision is not None and replan_epoch is None:
            replan_epoch = epoch
            post_decision = decision
    recovered = (
        post_decision is not None
        and planner.committed_latency_ms < degraded_latency
    )
    return {
        "initial_backend": initial.backend,
        "initial_latency_ms": round(
            initial.probes[initial.backend].mean_latency_ms, 4
        ),
        "degrade_at_epoch": degrade_at,
        "degraded_latency_ms": round(degraded_latency, 4),
        "replan_epoch": replan_epoch,
        "replans": controller.replans,
        "post_backend": (
            post_decision.backend if post_decision is not None else None
        ),
        "post_latency_ms": round(planner.committed_latency_ms, 4),
        "recovered": bool(recovered),
        # The controller swaps in a fresh detector after a replan, so any
        # warn alert here means the *new* plan also drifted out of band.
        "post_replan_warns": len([
            a for a in controller.detector.alerts if a.severity == "warn"
        ]),
    }


# -- the artifact ------------------------------------------------------------


def run_planner_bench(
    seed: int = 0, smoke: bool = False, workers: int = 1
) -> Dict[str, Any]:
    """Run every section and assemble the BENCH_PLANNER artifact."""
    probe_frames = 8 if smoke else 16
    fusion_frames = 30 if smoke else 120
    fusion_games = ["G1", "G3", "G5"]
    jobs = [
        (run_matrix_cell, (cell, seed, probe_frames))
        for cell in MATRIX_CELLS
    ]
    jobs += [
        (run_fusion_point, (game, seed, fusion_frames))
        for game in fusion_games
    ]
    jobs.append((run_drift_drill, (seed, probe_frames)))
    results = run_parallel_jobs(jobs, workers=workers)
    cells = results[: len(MATRIX_CELLS)]
    fusion = results[len(MATRIX_CELLS):-1]
    drill = results[-1]
    bench: Dict[str, Any] = {
        "seed": seed,
        "smoke": smoke,
        "matrix": {
            "cells": cells,
            "attainment": _matrix_attainment(cells),
            "n_cells": len(cells),
        },
        "fusion": fusion,
        "drift": drill,
    }
    return {"schema": BENCH_PLANNER_SCHEMA, "deterministic": seal(bench)}


def _planner_score(cell: Any) -> Any:
    if not isinstance(cell, dict):
        return None
    return cell.get("policies", {}).get("planner", {}).get("score")


def _checks(det: Dict[str, Any]) -> List[str]:
    """Acceptance gates for BENCH_PLANNER's deterministic section."""
    problems: List[str] = []
    matrix = det.get("matrix")
    if not isinstance(matrix, dict):
        problems.append("missing 'matrix' section")
    else:
        attainment = matrix.get("attainment", {})
        n = matrix.get("n_cells", 0)
        planner_hits = attainment.get("planner", 0)
        if planner_hits != n:
            problems.append(
                f"matrix: planner matched only {planner_hits}/{n} cells"
            )
        for policy in STATIC_POLICIES:
            hits = attainment.get(policy, 0)
            if hits >= planner_hits:
                problems.append(
                    f"matrix: static policy {policy} matched {hits} cells — "
                    "not dominated by the planner"
                )
        for i, cell in enumerate(matrix.get("cells", [])):
            if not isinstance(_planner_score(cell), (int, float)) or (
                "name" not in cell
            ):
                problems.append(
                    f"matrix: cell {i} lacks a name or a planner score"
                )
            elif cell.get("committed") not in BACKENDS:
                problems.append(
                    f"matrix: cell {cell.get('name')} committed to unknown "
                    f"backend {cell.get('committed')!r}"
                )

    fusion = det.get("fusion")
    if not isinstance(fusion, list) or not fusion:
        problems.append("missing 'fusion' section")
    else:
        for i, point in enumerate(fusion):
            fused = point.get("fused_bytes_per_frame") if isinstance(
                point, dict
            ) else None
            if not isinstance(fused, (int, float)) or "game" not in point:
                problems.append(
                    f"fusion: point {i} lacks a game or fused bytes per frame"
                )
                continue
            if point.get("byte_reduction", 0.0) <= 0.0:
                problems.append(
                    f"fusion: {point.get('game')} saw no measured byte "
                    "reduction"
                )
            if not point.get("command_conservation"):
                problems.append(
                    f"fusion: {point.get('game')} lost commands "
                    "(transmitted + dropped != emitted)"
                )

    drill = det.get("drift")
    if not isinstance(drill, dict):
        problems.append("missing 'drift' section")
    else:
        if not drill.get("replans"):
            problems.append("drift: degradation never triggered a replan")
        if drill.get("replan_epoch") is not None and (
            drill["replan_epoch"] < drill.get("degrade_at_epoch", 0)
        ):
            problems.append("drift: replan fired before the degradation")
        if not drill.get("recovered"):
            problems.append(
                "drift: post-replan plan did not recover the session"
            )
    return problems


# -- output ------------------------------------------------------------------


def format_bench(bench: Dict[str, Any]) -> str:
    """Terminal summary: the matrix table, fusion table, drill outcome."""
    det = bench["deterministic"]
    lines = [
        f"{'cell':<16} {'game':>4} {'genre':<12} {'winner':<10} "
        f"{'planner':>9} {'local':>9} {'bt':>9} {'wifi':>9} {'wan':>9}"
    ]

    def fmt(outcome: Dict[str, Any]) -> str:
        if not outcome["viable"] or outcome["score"] is None:
            return "—".rjust(9)
        return f"{outcome['score']:9.2f}"

    for cell in det["matrix"]["cells"]:
        p = cell["policies"]
        lines.append(
            f"{cell['name']:<16} {cell['game']:>4} {cell['genre']:<12} "
            f"{cell['committed']:<10} {fmt(p['planner'])} "
            f"{fmt(p['always_local'])} {fmt(p['always_bt'])} "
            f"{fmt(p['always_wifi'])} {fmt(p['always_wan'])}"
        )
    att = det["matrix"]["attainment"]
    n = det["matrix"]["n_cells"]
    lines.append(
        "attainment: " + ", ".join(
            f"{name}={att[name]}/{n}" for name in sorted(att)
        )
    )
    lines.append("")
    lines.append(
        f"{'fusion':<8} {'genre':<12} {'B/frame raw':>12} "
        f"{'B/frame fused':>14} {'saved':>7}"
    )
    for point in det["fusion"]:
        lines.append(
            f"{point['game']:<8} {point['genre']:<12} "
            f"{point['unfused_bytes_per_frame']:12.1f} "
            f"{point['fused_bytes_per_frame']:14.1f} "
            f"{point['byte_reduction']:6.1%}"
        )
    drill = det["drift"]
    lines.append("")
    lines.append(
        f"drift drill: {drill['initial_backend']} "
        f"({drill['initial_latency_ms']:.1f} ms) degraded at epoch "
        f"{drill['degrade_at_epoch']} to {drill['degraded_latency_ms']:.1f} "
        f"ms; replanned at epoch {drill['replan_epoch']} -> "
        f"{drill['post_backend']} ({drill['post_latency_ms']:.1f} ms), "
        f"recovered={drill['recovered']}"
    )
    lines.append(f"digest: {det['digest'][:16]}…")
    return "\n".join(lines)


SPEC = BenchSpec(
    name="planner",
    schema=BENCH_PLANNER_SCHEMA,
    artifact="BENCH_PLANNER.json",
    run=run_planner_bench,
    checks=_checks,
    format=format_bench,
)
