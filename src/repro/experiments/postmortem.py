"""The causal-tracing postmortem harness behind ``python -m repro postmortem``.

Three scenarios, all in simulated time so the ``BENCH_POSTMORTEM.json``
artifact is byte-identical across same-seed runs and worker counts:

1. **The incident** — a recorder session warms a shared replay hub, then
   an identically-seeded victim session runs through a mid-run loss
   burst with causal tracing, telemetry and the flight recorder armed.
   The burst breaches page-severity SLOs, the first page alert freezes a
   postmortem bundle, and the headline gates hold: the triggering
   frame's causal trace spans client + net + server plus at least one
   decision layer (replay/plan/fleet), every breach alert carries
   exemplar trace ids, and every exemplar resolves to rows of the span
   ring.
2. **The control** — the same armed session without faults.  The flight
   recorder must stay silent (zero bundles): evidence freezing is
   triggered, not ambient.
3. **The shard merge** — two causal-traced sessions treated as fleet
   shards; their span banks and histogram tail exemplars merge
   (exemplars in sorted ``(shard, session)`` order), proving the
   fleet-level view is a pure function of shard contents.

The harness doubles as a CI gate: :data:`SPEC` compares the artifact
digest — which covers the frozen bundle byte-for-byte — against the
committed baseline (``benchmarks/baselines/BENCH_POSTMORTEM.json``).  Any
drift fails, and the failure names each value that moved (a drifted
bundle shows as ``deterministic.incident.bundle.digest``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.apps.games import GAMES
from repro.core.config import GBoosterConfig
from repro.core.session import run_offload_session
from repro.devices.profiles import LG_NEXUS_5, NVIDIA_SHIELD
from repro.experiments.gate import BenchSpec, seal, write_chrome, write_json
from repro.faults.schedule import FaultSchedule
from repro.metrics.spans import pipeline_breakdown
from repro.obs.export import merged_chrome_trace
from repro.obs.flight import validate_bundle
from repro.obs.merge import merge_exemplars, merge_span_banks, span_bank

#: artifact schema identifier, bumped on incompatible changes
BENCH_POSTMORTEM_SCHEMA = "repro.bench_postmortem/1"

#: the triggering frame's causal trace must span at least this many
#: distinct span categories
MIN_TRACE_COMPONENTS = 4

#: at least one of these decision layers must appear on the trigger trace
DECISION_COMPONENTS = ("plan", "replay", "fleet")


# -- scenarios ---------------------------------------------------------------


#: frame budget the harness sessions arm.  The stack's default 80 ms
#: budget pages on the startup transient of *every* session (see the
#: committed BENCH_SLO baseline); the postmortem story needs a budget a
#: healthy run clears so only the loss burst triggers the recorder.
FRAME_BUDGET_MS = 200.0


def _victim_config(
    duration_ms: float, faults: Optional[FaultSchedule]
) -> GBoosterConfig:
    """The fully-armed session config the incident and control share."""
    from repro.obs.telemetry import default_session_slos

    return GBoosterConfig(
        telemetry=True,
        replay=True,
        deterministic_content=True,
        causal_tracing=True,
        flight_recorder=True,
        slos=default_session_slos(frame_budget_ms=FRAME_BUDGET_MS),
        faults=faults,
    )


def _alert_audit(telemetry, spans) -> Dict[str, Any]:
    """Do breach alerts point at frames the span ring can explain?

    For every alert: count its exemplar trace ids, and how many of them
    resolve to at least one row of the ring.  The acceptance gate requires
    every breach to carry >= 1 exemplar and every exemplar to resolve.
    """
    alerts = telemetry.alerts
    with_exemplars = 0
    resolved = 0
    total_exemplars = 0
    for alert in alerts:
        exemplars = list(getattr(alert, "exemplars", ()) or ())
        if exemplars:
            with_exemplars += 1
        total_exemplars += len(exemplars)
        resolved += sum(
            1 for trace_id in exemplars if spans.trace_of(trace_id)
        )
    return {
        "alerts": len(alerts),
        "alerts_with_exemplars": with_exemplars,
        "exemplars": total_exemplars,
        "exemplars_resolved": resolved,
    }


def _traced(spans) -> Dict[str, int]:
    """How many rows of the span ring carry a trace id, and how many
    distinct traces they make."""
    ids = [s.args["trace_id"] for s in spans.spans if "trace_id" in s.args]
    return {"rows": len(ids), "traces": len(set(ids))}


def run_postmortem_incident(duration_ms: float, seed: int) -> Dict[str, Any]:
    """Recorder warms the hub; the victim hits a loss burst and pages.

    Returns the deterministic incident summary *and* the merged Chrome
    trace (recorder + victim as separate Perfetto processes with
    trace-id flow arrows).  The chrome export is carried outside the
    digest — it is deterministic too, but the digest gates the bundle
    and summary, and the trace is an artifact for humans.
    """
    from repro.replay import ReplayHub

    app = GAMES["G3"]
    hub = ReplayHub()
    recorder_config = GBoosterConfig(
        replay=True, deterministic_content=True, causal_tracing=True,
    )
    recorder = run_offload_session(
        app, LG_NEXUS_5, [NVIDIA_SHIELD],
        config=recorder_config, duration_ms=duration_ms, seed=seed,
        replay_hub=hub, replay_session_id="recorder",
    )
    faults = FaultSchedule().loss_burst(
        at_ms=duration_ms * 0.4,
        duration_ms=duration_ms * 0.35,
        loss_probability=0.35,
    )
    victim = run_offload_session(
        app, LG_NEXUS_5, [NVIDIA_SHIELD],
        config=_victim_config(duration_ms, faults),
        duration_ms=duration_ms, seed=seed,
        replay_hub=hub, replay_session_id="victim",
    )
    sim = victim.engine.sim
    flight = victim.flight
    # The artifact carries the *richest* frozen bundle: the one whose
    # triggering frame's causal trace spans the most components.  An FPS
    # stall's witness frame is often still mid-flight when the recorder
    # freezes (that is the stall), so its trace legitimately stops at
    # the network; the frame-latency page's exemplar frame completed its
    # round trip and tells the full client->server->present story.
    # Earliest wins ties, so the pick is deterministic.
    bundle = None
    for candidate in flight.bundles:
        count = len(candidate.get("causal_components", []))
        if bundle is None or count > len(bundle["causal_components"]):
            bundle = candidate
    chrome = merged_chrome_trace(
        [
            {
                "shard": 0,
                "session": "recorder",
                "spans": recorder.engine.sim.spans,
            },
            {
                "shard": 0,
                "session": "victim",
                "spans": sim.spans,
                "alerts": victim.telemetry.alerts,
            },
        ],
        flows=True,
    )
    return {
        "summary": {
            "frames_presented": victim.fps.frame_count,
            "median_fps": round(victim.fps.median_fps, 4),
            "recorder_frames": recorder.fps.frame_count,
            "replay": victim.replay.stats.as_dict(),
            "trace_header_bytes": victim.engine.backend.pipeline.total_trace,
            "causal": _traced(sim.spans),
            "flight": flight.summary(),
            "bundle": bundle,
            "alert_audit": _alert_audit(victim.telemetry, sim.spans),
            "breakdown": pipeline_breakdown(sim.spans, exemplars=True),
        },
        "chrome": chrome,
    }


def run_postmortem_control(duration_ms: float, seed: int) -> Dict[str, Any]:
    """The same armed session, no faults: the recorder must stay silent."""
    victim = run_offload_session(
        GAMES["G3"], LG_NEXUS_5, [NVIDIA_SHIELD],
        config=_victim_config(duration_ms, faults=None),
        duration_ms=duration_ms, seed=seed,
    )
    pages = sum(
        1 for a in victim.telemetry.alerts if a.severity == "page"
    )
    return {
        "frames_presented": victim.fps.frame_count,
        "median_fps": round(victim.fps.median_fps, 4),
        "causal": _traced(victim.engine.sim.spans),
        "flight": victim.flight.summary(),
        "page_alerts": pages,
    }


def _shard_session(duration_ms: float, seed: int, shard: int) -> Dict[str, Any]:
    """One causal-traced shard: its span bank + histogram exemplars."""
    config = GBoosterConfig(
        telemetry=True, deterministic_content=True, causal_tracing=True,
    )
    result = run_offload_session(
        GAMES["G3"], LG_NEXUS_5, [NVIDIA_SHIELD],
        config=config, duration_ms=duration_ms, seed=seed,
        replay_session_id=f"shard{shard}-session",
    )
    sim = result.engine.sim
    hist = sim.metrics.histogram("client.frame_response_ms")
    return {
        "shard": shard,
        "session": result.causal.session_id,
        "bank": {"shard": shard, **span_bank(sim.spans)},
        "exemplars": hist.exemplar_summary(),
    }


def run_postmortem_shards(duration_ms: float, seed: int) -> Dict[str, Any]:
    """Two shards' span banks + exemplars folded deterministically.

    Shards are fed to the merge in *reverse* order on purpose: sorted
    ``(shard, session)`` consumption must make arrival order irrelevant.
    """
    shard1 = _shard_session(duration_ms, seed + 1, shard=1)
    shard0 = _shard_session(duration_ms, seed, shard=0)
    parts = [shard1, shard0]   # deliberately out of order
    return {
        "banks": [p["bank"] for p in sorted(parts, key=lambda p: p["shard"])],
        "merged": merge_span_banks([p["bank"] for p in parts]),
        "merged_exemplars": merge_exemplars(
            [
                {
                    "shard": p["shard"],
                    "session": p["session"],
                    "exemplars": p["exemplars"],
                }
                for p in parts
            ]
        ),
    }


# -- the artifact ------------------------------------------------------------


def run_postmortem_bench(
    seed: int = 0, smoke: bool = False, workers: int = 1
) -> Dict[str, Any]:
    """Run every scenario and assemble the BENCH_POSTMORTEM artifact.

    Everything under ``deterministic`` is simulated time — no wall-clock
    section — so two same-seed runs produce byte-identical files for any
    worker count (the scenarios are self-contained sims fanned across
    processes in fixed job order).  The merged Chrome trace rides
    alongside under ``chrome``, outside the digest.
    """
    from repro.sim.shard import run_parallel_jobs

    session_ms = 6_000.0 if smoke else 20_000.0
    shard_ms = 3_000.0 if smoke else 8_000.0
    incident, control, shards = run_parallel_jobs(
        [
            (run_postmortem_incident, (session_ms, seed)),
            (run_postmortem_control, (session_ms, seed)),
            (run_postmortem_shards, (shard_ms, seed)),
        ],
        workers=workers,
    )
    bench: Dict[str, Any] = {
        "seed": seed,
        "smoke": smoke,
        "incident": incident["summary"],
        "control": control,
        "shards": shards,
    }
    return {
        "schema": BENCH_POSTMORTEM_SCHEMA,
        "deterministic": seal(bench),
        "chrome": incident["chrome"],
    }


def _checks(det: Dict[str, Any]) -> List[str]:
    """Acceptance gates for BENCH_POSTMORTEM's deterministic section."""
    problems: List[str] = []
    incident = det.get("incident")
    if not isinstance(incident, dict):
        problems.append("missing scenario 'incident'")
    else:
        bundle = incident.get("bundle")
        if not isinstance(bundle, dict):
            problems.append("incident: loss burst froze no flight bundle")
        else:
            problems.extend(
                f"incident bundle: {p}" for p in validate_bundle(bundle)
            )
            components = bundle.get("causal_components", [])
            if len(components) < MIN_TRACE_COMPONENTS:
                problems.append(
                    "incident: triggering frame's causal trace spans "
                    f"{len(components)} components "
                    f"({', '.join(components) or 'none'}), "
                    f"need >= {MIN_TRACE_COMPONENTS}"
                )
            for required in ("client", "net", "server"):
                if required not in components:
                    problems.append(
                        f"incident: trigger trace missing {required!r}"
                    )
            # A replay hit has no row of its own: it is the frame's codec
            # encode row with kind="replay_hit".
            layers = set(components)
            if any(
                row.get("data", {}).get("kind") == "replay_hit"
                for row in bundle.get("causal_trace", [])
            ):
                layers.add("replay")
            if not any(c in layers for c in DECISION_COMPONENTS):
                problems.append(
                    "incident: trigger trace touches no decision layer "
                    f"({'/'.join(DECISION_COMPONENTS)})"
                )
            if not bundle.get("trigger", {}).get("trace_id"):
                problems.append("incident: trigger carries no trace id")
        audit = incident.get("alert_audit", {})
        if not audit.get("alerts"):
            problems.append("incident: loss burst raised no alerts")
        if audit.get("alerts_with_exemplars", 0) < audit.get("alerts", 0):
            problems.append(
                "incident: "
                f"{audit.get('alerts', 0) - audit.get('alerts_with_exemplars', 0)}"
                " breach alert(s) carry no exemplar trace ids"
            )
        if audit.get("exemplars_resolved") != audit.get("exemplars"):
            problems.append(
                "incident: "
                f"{audit.get('exemplars', 0) - audit.get('exemplars_resolved', 0)}"
                " exemplar trace id(s) do not resolve in the span ring"
            )
        if not incident.get("replay", {}).get("hits"):
            problems.append("incident: warm hub served nothing")

    control = det.get("control")
    if not isinstance(control, dict):
        problems.append("missing scenario 'control'")
    elif control.get("flight", {}).get("bundles"):
        problems.append(
            "control: flight recorder froze bundles on a healthy run"
        )

    shards = det.get("shards")
    if not isinstance(shards, dict):
        problems.append("missing scenario 'shards'")
    else:
        merged = shards.get("merged", {})
        banks = shards.get("banks", [])
        if sum(b.get("total", 0) for b in banks) != merged.get("total"):
            problems.append("shards: merged span count != sum of banks")
        if not shards.get("merged_exemplars"):
            problems.append("shards: merge produced no exemplars")
    return problems


# -- output ------------------------------------------------------------------


def write_bundle(path: str, bench: Dict[str, Any]) -> None:
    """Write the incident's frozen flight bundle as its own artifact."""
    bundle = (
        bench.get("deterministic", {}).get("incident", {}).get("bundle")
    )
    if bundle is None:
        raise ValueError("bench carries no flight bundle")
    write_json(path, bundle)


def format_bench(bench: Dict[str, Any]) -> str:
    """The triage report: what fired, why, and what the frame went through."""
    det = bench["deterministic"]
    incident = det.get("incident", {})
    bundle = incident.get("bundle") or {}
    trigger = bundle.get("trigger", {})
    lines = [
        "postmortem triage",
        "=================",
        f"trigger: {trigger.get('kind', '?')} from "
        f"{trigger.get('source', '?')} at {trigger.get('at_ms', 0.0)} ms "
        f"(trace {trigger.get('trace_id', '')})",
        f"bundle digest: {bundle.get('digest', '')[:16]}…  "
        f"(bundles: {incident.get('flight', {}).get('bundles', 0)}, "
        f"suppressed: {incident.get('flight', {}).get('suppressed', 0)})",
        "",
        "the triggering frame's journey:",
    ]
    for row in bundle.get("causal_trace", []):
        data = row.get("data", {})
        detail = ", ".join(
            f"{k}={data[k]}" for k in sorted(data) if k != "trace_id"
        )
        lines.append(
            f"  {row.get('at_ms', 0.0):>10.3f} ms  "
            f"{row.get('category', ''):<9} {row.get('event', ''):<12} "
            f"{detail}"
        )
    audit = incident.get("alert_audit", {})
    lines += [
        "",
        f"alerts: {audit.get('alerts', 0)} "
        f"({audit.get('alerts_with_exemplars', 0)} with exemplars; "
        f"{audit.get('exemplars_resolved', 0)}/{audit.get('exemplars', 0)} "
        "exemplar traces resolved)",
        f"replay: {incident.get('replay', {}).get('hits', 0)} serves, "
        f"{incident.get('replay', {}).get('records', 0)} records",
        f"control: {det.get('control', {}).get('flight', {}).get('bundles', 0)}"
        " bundles frozen (healthy run), "
        f"{det.get('control', {}).get('page_alerts', 0)} page alerts",
        f"shards: {det.get('shards', {}).get('merged', {}).get('total', 0)} "
        "merged spans across "
        f"{len(det.get('shards', {}).get('banks', []))} shards, "
        f"{len(det.get('shards', {}).get('merged_exemplars', []))} "
        "merged exemplars",
        f"digest: {det.get('digest', '')[:16]}…",
    ]
    return "\n".join(lines)


SPEC = BenchSpec(
    name="postmortem",
    schema=BENCH_POSTMORTEM_SCHEMA,
    artifact="BENCH_POSTMORTEM.json",
    run=run_postmortem_bench,
    checks=_checks,
    format=format_bench,
    side_files=(
        ("--bundle-out", "POSTMORTEM_BUNDLE.json", write_bundle),
        ("--trace-out", "POSTMORTEM_TRACE.json", write_chrome),
    ),
)
