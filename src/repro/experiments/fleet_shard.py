"""Experiment R3: sharded fleet sweeps — many kernels, many cores.

The sharded twin of ``repro.experiments.fleet``: the same launch wave,
device pool and crash schedule, but partitioned over K independently
clocked kernels (``repro.sim.shard``) synchronized at control-plane
barriers and optionally fanned across worker processes.  Each shard is
a :class:`~repro.fleet.runner.ShardWorker`, the fleet runner's
partitioned case, so a one-shard run is the same code as
:func:`~repro.experiments.fleet.run_fleet_point`.

Determinism contract (asserted by tests and the CI parallel-smoke job):

* at fixed ``(seed, shards)`` the merged report — and every per-session
  frame digest inside it — is **byte-identical for any** ``--workers N``;
* ``shards=1`` is the same code as
  :func:`~repro.experiments.fleet.run_fleet_point`, so its shard report
  digest is the single-kernel one;
* per-session *frame-content* digests are additionally shard-count
  invariant whenever the pool is provisioned (no backpressure), since
  what a session renders does not depend on who else shares its kernel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.apps.base import ApplicationSpec
from repro.apps.games import GAMES
from repro.experiments.fleet import (
    default_fault_schedule,
    launch_wave,
    make_fleet_pool,
)
from repro.obs.digest import digest_of
from repro.fleet import FleetConfig
from repro.fleet.runner import ShardJob
from repro.obs.merge import merge_metric_snapshots, merge_span_banks
from repro.sim.shard import (
    DEFAULT_WINDOW_MS,
    CoordinatorSummary,
    ShardError,
    ShardPlan,
    ShardResult,
    run_shards,
)


@dataclass
class ShardedFleetPoint:
    """Merged outcome of one sharded fleet run."""

    sessions_requested: int
    devices: int
    shards: int
    workers: int
    seed: int
    crash: bool
    offered: int
    admitted: int
    queued: int
    rejected: int
    dequeued: int
    waiting: int
    finished: int
    frames: int
    frames_lost: int
    frames_redispatched: int
    migrations: int
    crash_migrations: int
    peak_concurrent_observed: int
    barriers: int
    window_ms: float
    mean_wait_ms: float
    tier_response_ms: Dict[str, float] = field(default_factory=dict)
    #: sha256 over the merged report's simulated sections
    #: (workers-independent by construction)
    digest: str = ""
    #: sha256 over the merged ``metrics`` and ``spans`` bank
    obs_digest: str = ""
    #: per-session frame-content digests, sorted by (shard, session)
    session_digests: Dict[str, str] = field(default_factory=dict)
    invariant_violations: int = 0
    #: wall-clock seconds spent driving the shards (NOT part of the digest)
    wall_clock_s: float = 0.0

    @property
    def zero_loss(self) -> bool:
        return self.frames_lost == 0


def plan_fleet_shards(
    n_sessions: int,
    n_devices: int,
    shards: int,
    seed: int,
    duration_ms: float,
    crash: bool = True,
    arrival_spread_ms: float = 1_000.0,
    config: Optional[FleetConfig] = None,
    apps: Optional[Sequence[ApplicationSpec]] = None,
    arrival_offsets: Optional[Sequence[float]] = None,
    app_indices: Optional[Sequence[int]] = None,
) -> List[ShardJob]:
    """Partition one fleet point into per-shard jobs, round-robin by index.

    Sessions keep their global ids (``s000``, ``s001``, ...), apps keep
    the global Table II cycle, devices keep their global pool names, and
    the crash lands on whichever shard owns global device 0 — so the
    union of the shard jobs is exactly the single-kernel point.

    ``arrival_offsets`` replaces the uniform launch wave with an explicit
    open-ended schedule (``repro.fleet.arrivals`` curves): global session
    ``i`` arrives ``arrival_offsets[i]`` ms after an epoch past the
    worst-case bootstrap, the same in every shard.  Offsets are
    assigned by global index at plan time, so the schedule — like the
    app cycle — is a pure function of the point, independent of shard
    and worker counts.  ``app_indices`` likewise overrides the default
    app cycle (a capacity-grid genre mix) per global session index.
    ``config.faults`` is refused: its node indices are global, and each
    shard indexes its own devices.

    A zero-session point is a legitimate degenerate sweep input (capacity
    grids produce them): it plans empty shards and yields an
    empty-but-well-formed merged report instead of dividing the launch
    gap by zero.
    """
    if n_sessions < 0:
        raise ShardError(f"session count must be >= 0, got {n_sessions}")
    if shards > n_devices:
        raise ShardError(
            f"{shards} shards need at least as many devices, got {n_devices}"
        )
    if n_sessions and shards > n_sessions:
        raise ShardError(
            f"{shards} shards need at least as many sessions, got "
            f"{n_sessions}"
        )
    if arrival_offsets is not None:
        if len(arrival_offsets) != n_sessions:
            raise ShardError(
                f"{n_sessions} sessions need {n_sessions} arrival offsets, "
                f"got {len(arrival_offsets)}"
            )
        if any(b < a for a, b in zip(arrival_offsets, arrival_offsets[1:])):
            raise ShardError("arrival offsets must be sorted ascending")
        arrival_spread_ms = max([0.0, *arrival_offsets])
    if app_indices is not None and len(app_indices) != n_sessions:
        raise ShardError(
            f"{n_sessions} sessions need {n_sessions} app indices, "
            f"got {len(app_indices)}"
        )
    if config is None:
        config = FleetConfig()
    if config.faults:
        raise ShardError(
            "config.faults names global device indices but each shard "
            "indexes its own devices; use crash=True"
        )
    plan = ShardPlan(shards)
    pool = make_fleet_pool(n_devices)
    apps = list(apps or GAMES.values())
    # Guarded: a zero-session grid point must plan, not ZeroDivisionError.
    gap_ms = arrival_spread_ms / n_sessions if n_sessions else 0.0
    jobs: List[ShardJob] = []
    for shard in range(shards):
        device_indices = plan.indices(shard, n_devices)
        shard_config = config
        if crash and 0 in device_indices:
            shard_config = replace(config, faults=default_fault_schedule(
                duration_ms, node=device_indices.index(0)
            ))
        jobs.append(
            ShardJob(
                shard_id=shard,
                seed=seed,
                pool=[pool[j] for j in device_indices],
                config=shard_config,
                duration_ms=duration_ms,
                arrivals=launch_wave(
                    plan.indices(shard, n_sessions), apps, gap_ms=gap_ms,
                    app_indices=app_indices, offsets=arrival_offsets,
                ),
                spread_ms=arrival_spread_ms,
                anchored=arrival_offsets is not None,
            )
        )
    return jobs


def merge_shard_results(
    results: Sequence[ShardResult], summary: CoordinatorSummary
) -> Dict[str, Any]:
    """Fold per-shard reports into the fleet-level report, deterministically.

    Everything here is a pure function of the shard results and the
    coordinator summary — consumed in shard order, keyed sorted — so the
    digests at the bottom are stable across transports and worker counts.
    ``digest`` covers the simulated sections only; ``obs_digest`` covers
    what observed them (the ``metrics`` snapshot and the ``spans`` bank),
    so a new span or mark moves ``obs_digest`` and never ``digest``.
    """
    ordered = sorted(results, key=lambda r: r.shard_id)
    tiers: Dict[str, Dict[str, float]] = {}
    for result in ordered:
        for tier, bucket in result.report["tiers"].items():
            agg = tiers.setdefault(
                tier,
                {
                    "sessions": 0, "frames": 0, "frames_lost": 0,
                    "migrations": 0, "response_weighted": 0.0,
                },
            )
            agg["sessions"] += bucket["sessions"]
            agg["frames"] += bucket["frames"]
            agg["frames_lost"] += bucket["frames_lost"]
            agg["migrations"] += bucket["migrations"]
            agg["response_weighted"] += (
                bucket["mean_response_ms"] * bucket["frames"]
            )
    per_tier = {
        tier: {
            "sessions": int(agg["sessions"]),
            "frames": int(agg["frames"]),
            "frames_lost": int(agg["frames_lost"]),
            "migrations": int(agg["migrations"]),
            "mean_response_ms": round(
                agg["response_weighted"] / agg["frames"], 4
            ) if agg["frames"] else 0.0,
        }
        for tier, agg in sorted(tiers.items())
    }
    admissions = [r.report["admission"] for r in ordered]
    # Wait samples are recorded only when a queued session is dequeued,
    # so the per-shard mean must be weighted by the dequeue count — not
    # admitted+queued, which overweights shards that admitted directly.
    wait_weights = [a["dequeued"] for a in admissions]
    total_waits = sum(wait_weights)
    mean_wait_ms = round(
        sum(
            a["mean_wait_ms"] * w
            for a, w in zip(admissions, wait_weights)
        ) / total_waits,
        4,
    ) if total_waits else 0.0
    # Session digests keyed in (shard, session) merge order.
    session_digests: Dict[str, str] = {}
    for result in ordered:
        for sid in sorted(result.session_digests):
            session_digests[sid] = result.session_digests[sid]
    merged: Dict[str, Any] = {
        "shards": len(ordered),
        "pool_devices": sum(r.report["pool_devices"] for r in ordered),
        "registered_devices": sum(
            r.report["registered_devices"] for r in ordered
        ),
        "capacity_mp_per_ms": round(
            sum(r.report["capacity_mp_per_ms"] for r in ordered), 4
        ),
        "admission": {
            "offered": sum(a["offered"] for a in admissions),
            "admitted": sum(a["admitted"] for a in admissions),
            "queued": sum(a["queued"] for a in admissions),
            "rejected": sum(a["rejected"] for a in admissions),
            "dequeued": sum(a["dequeued"] for a in admissions),
            "waiting": sum(a["waiting"] for a in admissions),
            "mean_wait_ms": mean_wait_ms,
        },
        "sessions": {
            "finished": sum(
                r.report["sessions"]["finished"] for r in ordered
            ),
            "active": sum(r.report["sessions"]["active"] for r in ordered),
            "peak_concurrent_observed": summary.peak_concurrent_observed,
        },
        "migrations": {
            "total": sum(r.report["migrations"]["total"] for r in ordered),
            "crash": sum(r.report["migrations"]["crash"] for r in ordered),
            "rebalance": sum(
                r.report["migrations"]["rebalance"] for r in ordered
            ),
            "frames_redispatched": sum(
                r.report["migrations"]["frames_redispatched"]
                for r in ordered
            ),
        },
        "tiers": per_tier,
        "barrier": {
            "count": summary.barriers,
            "window_ms": summary.window_ms,
        },
        "session_digests": session_digests,
        "per_shard_digests": {
            str(r.shard_id): r.report["digest"] for r in ordered
        },
    }
    observed = {
        "metrics": merge_metric_snapshots([r.metrics for r in ordered]),
        "spans": merge_span_banks([r.span_bank for r in ordered]),
    }
    merged["digest"] = digest_of(merged)
    merged["obs_digest"] = digest_of(observed)
    merged.update(observed)
    return merged


def run_sharded_fleet_point(
    n_sessions: int = 64,
    n_devices: int = 8,
    duration_ms: float = 10_000.0,
    seed: int = 0,
    shards: int = 4,
    workers: int = 1,
    crash: bool = True,
    window_ms: float = DEFAULT_WINDOW_MS,
    config: Optional[FleetConfig] = None,
    arrival_spread_ms: float = 1_000.0,
    arrival_offsets: Optional[Sequence[float]] = None,
    app_indices: Optional[Sequence[int]] = None,
) -> Tuple[ShardedFleetPoint, Dict[str, Any]]:
    """One sharded fleet point; returns the merged point and report."""
    jobs = plan_fleet_shards(
        n_sessions=n_sessions, n_devices=n_devices, shards=shards,
        seed=seed, duration_ms=duration_ms, crash=crash,
        arrival_spread_ms=arrival_spread_ms, config=config,
        arrival_offsets=arrival_offsets, app_indices=app_indices,
    )
    started = time.perf_counter()
    results, summary = run_shards(
        jobs, workers=workers, window_ms=window_ms
    )
    wall_clock_s = time.perf_counter() - started
    report = merge_shard_results(results, summary)
    point = ShardedFleetPoint(
        sessions_requested=n_sessions,
        devices=n_devices,
        shards=shards,
        workers=workers,
        seed=seed,
        crash=crash,
        offered=report["admission"]["offered"],
        admitted=report["admission"]["admitted"],
        queued=report["admission"]["queued"],
        rejected=report["admission"]["rejected"],
        dequeued=report["admission"]["dequeued"],
        waiting=report["admission"]["waiting"],
        finished=report["sessions"]["finished"],
        frames=sum(t["frames"] for t in report["tiers"].values()),
        frames_lost=sum(
            t["frames_lost"] for t in report["tiers"].values()
        ),
        frames_redispatched=report["migrations"]["frames_redispatched"],
        migrations=report["migrations"]["total"],
        crash_migrations=report["migrations"]["crash"],
        peak_concurrent_observed=(
            report["sessions"]["peak_concurrent_observed"]
        ),
        barriers=report["barrier"]["count"],
        window_ms=window_ms,
        mean_wait_ms=report["admission"]["mean_wait_ms"],
        tier_response_ms={
            tier: t["mean_response_ms"]
            for tier, t in report["tiers"].items()
        },
        digest=report["digest"],
        obs_digest=report["obs_digest"],
        session_digests=dict(report["session_digests"]),
        invariant_violations=sum(
            r.invariant_violations for r in results
        ),
        wall_clock_s=wall_clock_s,
    )
    return point, report


def run_sharded_fleet_sweep(
    session_counts: Sequence[int] = (16, 32, 64, 96),
    n_devices: int = 8,
    duration_ms: float = 10_000.0,
    seed: int = 0,
    shards: int = 4,
    workers: int = 1,
    crash: bool = True,
    window_ms: float = DEFAULT_WINDOW_MS,
) -> List[ShardedFleetPoint]:
    """Sweep session count over a fixed pool, sharded."""
    return [
        run_sharded_fleet_point(
            n_sessions=n, n_devices=n_devices, duration_ms=duration_ms,
            seed=seed, shards=shards, workers=workers, crash=crash,
            window_ms=window_ms,
        )[0]
        for n in session_counts
    ]


def format_sharded_points(points: Sequence[ShardedFleetPoint]) -> str:
    header = (
        f"{'sessions':>8} {'devices':>7} {'shards':>6} {'workers':>7} "
        f"{'admit':>5} {'queue':>5} {'reject':>6} {'migr':>4} {'lost':>4} "
        f"{'barriers':>8} {'wall s':>7} {'digest':>16}"
    )
    lines = [header]
    for p in points:
        lines.append(
            f"{p.sessions_requested:8d} {p.devices:7d} {p.shards:6d} "
            f"{p.workers:7d} {p.admitted:5d} {p.queued:5d} "
            f"{p.rejected:6d} {p.migrations:4d} {p.frames_lost:4d} "
            f"{p.barriers:8d} {p.wall_clock_s:7.2f} {p.digest[:16]:>16}"
        )
    return "\n".join(lines)
