"""Experiment R5: capacity planning — the frontier behind ``repro capacity``.

Answers the provisioning question the fleet experiments stop short of:
**how many concurrent sessions can N devices sustain at target SLO
attainment, under realistic arrival patterns?**  A grid of fleet sizes ×
arrival curves (``repro.fleet.arrivals``: steady / diurnal / flash
crowd) × genre mixes is swept; each point replays the mix through the
full admission/placement/serving stack with the burn-rate telemetry hub
armed, reduces to an SLO-attainment record, and the per-group maxima
become the frontier: *"N devices sustain M concurrent sessions at
>= 99% frame-p99 attainment"*.

Attainment here is **service attainment**: a frame is *good* when it
responds within the frame budget, *bad* when it does not, and every
frame a rejected session would have been served also counts against the
objective (``denied``).  Without the denied term an overloaded fleet
looks *better* as rejections climb — admission control would shed
exactly the load that was hurting the percentile — so served-only
attainment is reported but never gates.

Every point runs its own kernel, so the grid fans across processes via
:func:`~repro.sim.shard.run_parallel_jobs`; results return in job order
and arrival schedules are per-session-seeded, making the artifact
byte-identical for any ``--workers`` count.  The CI smoke gate
(:data:`SPEC`) asserts exactly that, then diffs ``BENCH_CAPACITY.json``
against the committed baseline: any drift fails, and the failure names
each value that moved.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.apps.games import GAMES
from repro.core.session import _check_duration
from repro.experiments.fleet import make_fleet_pool
from repro.experiments.gate import BenchSpec, seal
from repro.fleet import (
    Arrival,
    ArrivalCurve,
    FleetConfig,
    FleetRun,
    arrival_offsets,
    diurnal,
    flash_crowd,
    steady,
)
from repro.obs.slo import SloSpec
from repro.obs.telemetry import TelemetryHub, default_fleet_slos
from repro.sim.kernel import Simulator

#: artifact schema identifier, bumped on incompatible changes
BENCH_CAPACITY_SCHEMA = "repro.bench_capacity/1"

#: a frame is good when it responds within this budget (the headline SLO)
DEFAULT_FRAME_BUDGET_MS = 250.0

#: frontier bar: sustained load needs this service attainment
ATTAINMENT_TARGET = 0.99

#: raw attainment may wiggle up this much along the load axis before
#: the monotonicity gate calls it a violation; wiggle happens because a
#: point's ratio is over its own (finite) frame sample — added sessions
#: land in quiet parts of the schedule and can dilute an unlucky
#: cluster.  The *envelope* (running minimum) is gated exactly.
MONOTONE_EPS = 0.02

#: apps per genre, as indices into the ``GAMES`` Table II cycle
GENRE_TITLES: Dict[str, Tuple[int, ...]] = {
    "action": (0, 1),          # G1, G2
    "roleplaying": (2, 3),     # G3, G4
    "puzzle": (4, 5),          # G5, G6
}

#: the population mixes every capacity sweep covers
GENRE_MIXES: Dict[str, Dict[str, int]] = {
    "balanced": {"action": 1, "roleplaying": 1, "puzzle": 1},
    "action_heavy": {"action": 3, "roleplaying": 1, "puzzle": 1},
    "casual": {"action": 1, "roleplaying": 1, "puzzle": 3},
}

#: grid axes (sessions offered = devices * load factor)
FULL_DEVICES = (4, 8, 12)
FULL_LOAD_FACTORS = (1, 2, 4, 6)
SMOKE_DEVICES = (2, 4)
SMOKE_LOAD_FACTORS = (1, 3)


def capacity_slos(
    frame_budget_ms: float = DEFAULT_FRAME_BUDGET_MS,
) -> List[SloSpec]:
    """The planner's objectives: fleet frame p99 + the admission pair."""
    return [
        SloSpec(
            name="fleet_frame_p99",
            series="fleet.frame_response_ms",
            threshold=frame_budget_ms,
            comparison="le",
            mode="threshold",
            error_budget=0.01,
            description="99% of fleet frames respond within the budget",
        ),
    ] + default_fleet_slos()


def mix_app_indices(mix: Dict[str, int], n_sessions: int) -> List[int]:
    """Apportion ``n_sessions`` across a genre mix, deterministically.

    Smooth weighted round-robin over genres (no RNG: the mix is part of
    the experiment's identity, not its noise), alternating titles within
    each genre — so arrival order interleaves QoS tiers instead of
    batching them.
    """
    genres = sorted(mix)
    weights = {g: mix[g] for g in genres}
    if any(w <= 0 for w in weights.values()):
        raise ValueError(f"mix weights must be positive, got {mix}")
    total = sum(weights.values())
    current = {g: 0.0 for g in genres}
    emitted = {g: 0 for g in genres}
    out: List[int] = []
    for _ in range(n_sessions):
        for g in genres:
            current[g] += weights[g]
        pick = max(genres, key=lambda g: (current[g], g))
        current[pick] -= total
        titles = GENRE_TITLES[pick]
        out.append(titles[emitted[pick] % len(titles)])
        emitted[pick] += 1
    return out


def standard_curves(span_ms: float) -> List[ArrivalCurve]:
    """The three sweep shapes, scaled to one arrival span."""
    return [
        steady(span_ms=span_ms),
        diurnal(span_ms=span_ms),
        flash_crowd(
            span_ms=span_ms,
            burst_width_ms=max(span_ms * 0.05, 50.0),
        ),
    ]


def run_capacity_point(
    n_sessions: int,
    n_devices: int,
    curve: ArrivalCurve,
    mix_name: str,
    duration_ms: float,
    seed: int,
    frame_budget_ms: float = DEFAULT_FRAME_BUDGET_MS,
) -> Dict[str, Any]:
    """One sweep point: replay the mix through the full serving stack.

    Runs a private kernel with the telemetry hub and the invariant
    monitor both armed, submits the curve's arrival schedule, drains to
    quiescence, and reduces to the point's attainment record.  A
    ``duration_ms`` that is not finite and positive raises ``ValueError``
    before the kernel is built.
    """
    _check_duration(duration_ms)
    apps = list(GAMES.values())
    indices = mix_app_indices(GENRE_MIXES[mix_name], n_sessions)
    offsets = arrival_offsets(curve, n_sessions, seed)
    sim = Simulator(seed=seed)
    hub = TelemetryHub(sim, slos=capacity_slos(frame_budget_ms))
    config = FleetConfig(check=True)
    run = FleetRun(
        sim, make_fleet_pool(n_devices), config, duration_ms,
        [
            Arrival(offset - previous, f"s{i:03d}", apps[indices[i]])
            for i, (previous, offset) in enumerate(
                zip([0.0, *offsets], offsets)
            )
        ],
        spread_ms=offsets[-1] if offsets else 0.0,
    )
    report = run.run()
    hub.finalize()
    violations = run.invariant_violations
    run.close()

    adm = report["admission"]
    telemetry = hub.report()
    frame_slo = telemetry["slos"]["fleet_frame_p99"]
    good, bad = frame_slo["good"], frame_slo["bad"]
    # Demand a rejected session would have placed on the fleet: every
    # one of its frames counts against the objective as denied.
    frames_per_session = duration_ms / 1_000.0 * config.serve_rate_hz
    denied = int(round(adm["rejected"] * frames_per_session))
    demand = good + bad + denied
    return {
        "sessions": n_sessions,
        "devices": n_devices,
        "curve": curve.key,
        "mix": mix_name,
        "duration_ms": duration_ms,
        "frame_budget_ms": frame_budget_ms,
        "admission": {
            "offered": adm["offered"],
            "admitted": adm["admitted"],
            "queued": adm["queued"],
            "rejected": adm["rejected"],
            "dequeued": adm["dequeued"],
            "waiting": adm["waiting"],
            "mean_wait_ms": adm["mean_wait_ms"],
        },
        "reconciled": (
            adm["offered"]
            == adm["admitted"] + adm["rejected"] + adm["waiting"]
        ),
        "peak_concurrency": report["sessions"]["peak_concurrency"],
        "frames_good": good,
        "frames_bad": bad,
        "frames_denied": denied,
        "service_attainment": (
            round(good / demand, 6) if demand else 1.0
        ),
        "served_attainment": round(frame_slo["attainment"], 6),
        "slo_states": {
            name: telemetry["slos"][name]["state"]
            for name in sorted(telemetry["slos"])
        },
        "alerts": len(telemetry["alerts"]),
        "invariant_violations": violations,
    }


# -- the grid ----------------------------------------------------------------


def capacity_grid(
    smoke: bool = False,
    frame_budget_ms: float = DEFAULT_FRAME_BUDGET_MS,
) -> Tuple[List[Tuple[int, int, ArrivalCurve, str, float, float]], Dict[str, Any]]:
    """The sweep's (point args, grid description) — pure function of mode."""
    if smoke:
        devices, factors = SMOKE_DEVICES, SMOKE_LOAD_FACTORS
        mixes: Sequence[str] = ("balanced",)
        duration_ms = 2_500.0
    else:
        devices, factors = FULL_DEVICES, FULL_LOAD_FACTORS
        mixes = tuple(sorted(GENRE_MIXES))
        duration_ms = 8_000.0
    curves = standard_curves(span_ms=duration_ms)
    points = [
        (d * f, d, curve, mix, duration_ms, frame_budget_ms)
        for d in devices
        for curve in curves
        for mix in mixes
        for f in factors
    ]
    description = {
        "devices": list(devices),
        "load_factors": list(factors),
        "curves": {c.key: c.describe() for c in curves},
        "mixes": {m: GENRE_MIXES[m] for m in mixes},
        "duration_ms": duration_ms,
        "frame_budget_ms": frame_budget_ms,
    }
    return points, description


def attach_envelopes(points: Sequence[Dict[str, Any]]) -> None:
    """Add ``envelope_attainment`` to every point, in place.

    The envelope is the running minimum of service attainment along the
    load axis of the point's (devices, curve, mix) group — the
    conservative planning curve.  Raw attainment over a finite frame
    sample can wiggle upward when added sessions land in quiet parts of
    the nested schedule; the envelope is monotone non-increasing by
    construction, and it is what the frontier is read off.
    """
    groups: Dict[Tuple[int, str, str], List[Dict[str, Any]]] = {}
    for p in points:
        key = (p["devices"], p["curve"], p["mix"])
        groups.setdefault(key, []).append(p)
    for group in groups.values():
        floor = 1.0
        for p in sorted(group, key=lambda p: p["sessions"]):
            floor = min(floor, p["service_attainment"])
            p["envelope_attainment"] = round(floor, 6)


def compute_frontier(
    points: Sequence[Dict[str, Any]],
    target: float = ATTAINMENT_TARGET,
) -> List[Dict[str, Any]]:
    """Per (devices, curve, mix): the largest sustained offered load.

    First-breach rule: *sustained* is the largest offered load such
    that every load up to and including it held the target (i.e. the
    envelope attainment still clears the bar).  A group whose smallest
    load already misses reports ``sustained: 0``.
    """
    attach_envelopes(points)
    groups: Dict[Tuple[int, str, str], List[Dict[str, Any]]] = {}
    for p in points:
        key = (p["devices"], p["curve"], p["mix"])
        groups.setdefault(key, []).append(p)
    frontier: List[Dict[str, Any]] = []
    for (devices, curve, mix) in sorted(groups):
        loads = sorted(
            groups[(devices, curve, mix)], key=lambda p: p["sessions"]
        )
        sustained = 0
        attainment = None
        for p in loads:
            if p["envelope_attainment"] < target:
                break
            sustained = p["sessions"]
            attainment = p["envelope_attainment"]
        frontier.append(
            {
                "devices": devices,
                "curve": curve,
                "mix": mix,
                "target": target,
                "sustained": sustained,
                "attainment_at_sustained": attainment,
                "max_offered": loads[-1]["sessions"],
            }
        )
    return frontier


def run_capacity_bench(
    seed: int = 0, smoke: bool = False, workers: int = 1
) -> Dict[str, Any]:
    """Sweep the grid and assemble the BENCH_CAPACITY artifact.

    Everything inside ``deterministic`` is simulated time — no wall
    clock — so two same-seed runs produce byte-identical files for any
    ``workers`` count.
    """
    from repro.sim.shard import run_parallel_jobs

    point_args, description = capacity_grid(smoke=smoke)
    results = run_parallel_jobs(
        [
            (run_capacity_point, (n, d, curve, mix, dur, seed, budget))
            for (n, d, curve, mix, dur, budget) in point_args
        ],
        workers=workers,
    )
    frontier = compute_frontier(results)
    bench: Dict[str, Any] = {
        "seed": seed,
        "smoke": smoke,
        "grid": description,
        "points": results,
        "frontier": frontier,
    }
    return {"schema": BENCH_CAPACITY_SCHEMA, "deterministic": seal(bench)}


# -- validation --------------------------------------------------------------


#: keys the checks read from each record
POINT_KEYS = ("devices", "curve", "mix", "sessions", "service_attainment")
FRONTIER_KEYS = ("devices", "curve", "mix", "sustained")


def _missing_keys(
    records: Any, keys: Sequence[str], what: str
) -> List[str]:
    if not isinstance(records, list):
        return [f"'{what}' must be a list"]
    return [
        f"{what}[{i}] missing {key!r}"
        for i, record in enumerate(records)
        for key in keys
        if not isinstance(record, dict) or key not in record
    ]


def _checks(det: Dict[str, Any]) -> List[str]:
    """Semantic gate for BENCH_CAPACITY's deterministic section."""
    points = det.get("points")
    if not isinstance(points, list) or not points:
        return ["missing or empty 'points'"]
    problems = _missing_keys(points, POINT_KEYS, "points") + _missing_keys(
        det.get("frontier"), FRONTIER_KEYS, "frontier"
    )
    if problems:
        return problems
    devices = {p["devices"] for p in points}
    curves = {p["curve"] for p in points}
    if not det.get("smoke"):
        if len(devices) < 3:
            problems.append(
                f"full grid needs >= 3 fleet sizes, got {sorted(devices)}"
            )
        if len(curves) < 3:
            problems.append(
                f"full grid needs 3 arrival curves, got {sorted(curves)}"
            )
    for p in points:
        where = (
            f"point devices={p.get('devices')} curve={p.get('curve')} "
            f"mix={p.get('mix')} sessions={p.get('sessions')}"
        )
        if not p.get("reconciled", False):
            problems.append(f"{where}: admission ledger does not reconcile")
        if p.get("invariant_violations"):
            problems.append(
                f"{where}: {p['invariant_violations']} invariant violations"
            )
        if p.get("admission", {}).get("waiting"):
            problems.append(f"{where}: sessions still waiting at drain")
    # Attainment must fall as offered load grows at fixed (devices,
    # curve, mix) — the property the frontier construction leans on.
    # The envelope is gated exactly; raw attainment gets a small-sample
    # wiggle allowance.
    groups: Dict[Tuple[int, str, str], List[Dict[str, Any]]] = {}
    for p in points:
        groups.setdefault((p["devices"], p["curve"], p["mix"]), []).append(p)
    for key, group in sorted(groups.items()):
        ordered = sorted(group, key=lambda p: p["sessions"])
        for low, high in zip(ordered, ordered[1:]):
            if (
                high["service_attainment"]
                > low["service_attainment"] + MONOTONE_EPS
            ):
                problems.append(
                    f"devices={key[0]} curve={key[1]} mix={key[2]}: "
                    f"attainment rises with load "
                    f"({low['sessions']}->{high['sessions']}: "
                    f"{low['service_attainment']:.4f} -> "
                    f"{high['service_attainment']:.4f})"
                )
            if (
                "envelope_attainment" in low
                and "envelope_attainment" in high
                and high["envelope_attainment"] > low["envelope_attainment"]
            ):
                problems.append(
                    f"devices={key[0]} curve={key[1]} mix={key[2]}: "
                    f"envelope attainment rises with load "
                    f"({low['sessions']}->{high['sessions']})"
                )
    if len(det["frontier"]) != len(groups):
        problems.append(
            "frontier must carry one entry per (devices, curve, mix) group"
        )
    return problems


# -- output ------------------------------------------------------------------


def format_bench(bench: Dict[str, Any]) -> str:
    """The frontier table: one row per (devices, curve, mix) group."""
    det = bench["deterministic"]
    lines = [
        f"{'devices':>7} {'curve':<8} {'mix':<13} {'sustained':>9} "
        f"{'max tried':>9} {'attainment':>10}"
    ]
    for f in det.get("frontier", []):
        att = f.get("attainment_at_sustained")
        shown = f"{att:10.4f}" if att is not None else f"{'—':>10}"
        lines.append(
            f"{f['devices']:7d} {f['curve']:<8} {f['mix']:<13} "
            f"{f['sustained']:9d} {f['max_offered']:9d} {shown}"
        )
    lines.append(
        f"{len(det.get('points', []))} points, "
        f"target attainment {ATTAINMENT_TARGET:.0%}, "
        f"digest {det['digest'][:16]}…"
    )
    return "\n".join(lines)


SPEC = BenchSpec(
    name="capacity",
    schema=BENCH_CAPACITY_SCHEMA,
    artifact="BENCH_CAPACITY.json",
    run=run_capacity_bench,
    checks=_checks,
    format=format_bench,
)
