"""Experiment R2: fleet scaling — many sessions over a shared pool.

Not a paper figure: §VIII stops at two users on one console.  This sweep
pushes the same machinery to fleet scale: N concurrent sessions (mixed
Table II genres) over a pool of service devices, with a mid-run device
crash and later rejoin injected through ``repro.faults``.  Reported per
sweep point: admission outcomes, per-tier mean response time, migrations
taken, and the zero-frame-loss invariant.

Everything is deterministic under a fixed seed — two runs of the same
point produce byte-identical reports (asserted via the report digest).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.base import ApplicationSpec
from repro.apps.games import GAMES
from repro.devices.profiles import SERVICE_DEVICES, DeviceSpec
from repro.faults import FaultSchedule
from repro.fleet import Arrival, FleetConfig, FleetRun
from repro.sim.kernel import Simulator

#: fraction of the session window at which the injected crash lands / heals
CRASH_AT_FRACTION = 0.4
REJOIN_AT_FRACTION = 0.8


def make_fleet_pool(n_devices: int) -> List[DeviceSpec]:
    """A pool of ``n_devices`` drawn round-robin from the Table II lineup.

    Names are made unique (``"Nvidia Shield #3"``) so registry, placer
    and metrics can key on them.
    """
    if n_devices < 1:
        raise ValueError(f"need at least one device, got {n_devices}")
    bases = list(SERVICE_DEVICES.values())
    return [
        replace(bases[i % len(bases)], name=f"{bases[i % len(bases)].name} #{i}")
        for i in range(n_devices)
    ]


def default_fault_schedule(duration_ms: float, node: int = 0) -> FaultSchedule:
    """Crash one pool device mid-run; power it back near the end."""
    return FaultSchedule().crash(
        at_ms=duration_ms * CRASH_AT_FRACTION,
        node=node,
        rejoin_at_ms=duration_ms * REJOIN_AT_FRACTION,
    )


@dataclass
class FleetPoint:
    """Outcome of one fleet sweep point."""

    sessions_requested: int
    devices: int
    seed: int
    crash: bool
    offered: int
    admitted: int
    queued: int
    rejected: int
    dequeued: int
    waiting: int
    finished: int
    peak_concurrency: int
    migrations: int
    crash_migrations: int
    frames: int
    frames_lost: int
    frames_redispatched: int
    mean_wait_ms: float
    tier_response_ms: Dict[str, float] = field(default_factory=dict)
    digest: str = ""
    #: conservation-law breaks caught when ``config.check`` is armed
    invariant_violations: int = 0

    @property
    def zero_loss(self) -> bool:
        return self.frames_lost == 0


def launch_wave(
    indices: Sequence[int],
    apps: Sequence[ApplicationSpec],
    gap_ms: float = 0.0,
    app_indices: Optional[Sequence[int]] = None,
    offsets: Optional[Sequence[float]] = None,
) -> List[Arrival]:
    """The arrivals of global sessions ``indices`` (ascending) of a wave.

    Session ``i`` is ``s{i:03d}`` running ``apps[app_indices[i]]``, by
    default cycling through ``apps`` so every QoS tier is represented.
    It arrives ``i * gap_ms`` after the wave start, or with ``offsets``,
    ``offsets[i]`` after an epoch.  A slice of the indices is a shard's
    share of the same wave.
    """
    arrivals = []
    previous = 0
    for i in indices:
        app = app_indices[i] if app_indices is not None else i % len(apps)
        if offsets is not None:
            after_ms = offsets[i]
        else:
            after_ms = (i - previous) * gap_ms
        previous = i
        arrivals.append(Arrival(after_ms, f"s{i:03d}", apps[app]))
    return arrivals


def run_fleet_point(
    n_sessions: int = 64,
    n_devices: int = 8,
    duration_ms: float = 10_000.0,
    seed: int = 0,
    crash: bool = True,
    config: Optional[FleetConfig] = None,
    apps: Optional[Sequence[ApplicationSpec]] = None,
    arrival_spread_ms: float = 1_000.0,
    sim: Optional[Simulator] = None,
) -> Tuple[FleetPoint, Dict]:
    """One fleet run; returns the sweep point and the full fleet report.

    ``crash`` injects :func:`default_fault_schedule`; a config that
    carries its own faults must leave it off.  Pass a pre-built ``sim``
    to keep hold of the kernel afterwards — the profiling harness reads
    ``sim.spans`` / ``sim.metrics`` off it.
    """
    if n_sessions < 1:
        raise ValueError(f"need at least one session, got {n_sessions}")
    if config is None:
        config = FleetConfig()
    if crash:
        if config.faults:
            raise ValueError(
                "crash=True injects the default crash schedule and would "
                "drop config.faults; pass one or the other"
            )
        config = replace(
            config, faults=default_fault_schedule(duration_ms)
        )
    run = FleetRun(
        sim if sim is not None else Simulator(seed=seed),
        make_fleet_pool(n_devices),
        config,
        duration_ms,
        launch_wave(
            range(n_sessions), list(apps or GAMES.values()),
            gap_ms=arrival_spread_ms / n_sessions,
        ),
        spread_ms=arrival_spread_ms,
    )
    report = run.run()
    tiers = report["tiers"]
    point = FleetPoint(
        sessions_requested=n_sessions,
        devices=n_devices,
        seed=seed,
        crash=crash,
        offered=report["admission"]["offered"],
        admitted=report["admission"]["admitted"],
        queued=report["admission"]["queued"],
        rejected=report["admission"]["rejected"],
        dequeued=report["admission"]["dequeued"],
        waiting=report["admission"]["waiting"],
        finished=report["sessions"]["finished"],
        peak_concurrency=report["sessions"]["peak_concurrency"],
        migrations=report["migrations"]["total"],
        crash_migrations=report["migrations"]["crash"],
        frames=sum(t["frames"] for t in tiers.values()),
        frames_lost=sum(t["frames_lost"] for t in tiers.values()),
        frames_redispatched=report["migrations"]["frames_redispatched"],
        mean_wait_ms=report["admission"]["mean_wait_ms"],
        tier_response_ms={
            tier: t["mean_response_ms"] for tier, t in tiers.items()
        },
        digest=report["digest"],
        invariant_violations=run.invariant_violations,
    )
    return point, report


def run_fleet_sweep(
    session_counts: Sequence[int] = (16, 32, 64, 96),
    n_devices: int = 8,
    duration_ms: float = 10_000.0,
    seed: int = 0,
    crash: bool = True,
) -> List[FleetPoint]:
    """Sweep session count over a fixed pool."""
    return [
        run_fleet_point(
            n_sessions=n, n_devices=n_devices, duration_ms=duration_ms,
            seed=seed, crash=crash,
        )[0]
        for n in session_counts
    ]


def format_points(points: Sequence[FleetPoint]) -> str:
    header = (
        f"{'sessions':>8} {'devices':>7} {'admit':>5} {'queue':>5} "
        f"{'reject':>6} {'peak':>4} {'migr':>4} {'lost':>4} "
        f"{'action ms':>9} {'standard ms':>11} {'tolerant ms':>11}"
    )
    lines = [header]
    for p in points:
        lines.append(
            f"{p.sessions_requested:8d} {p.devices:7d} {p.admitted:5d} "
            f"{p.queued:5d} {p.rejected:6d} {p.peak_concurrency:4d} "
            f"{p.migrations:4d} {p.frames_lost:4d} "
            f"{p.tier_response_ms.get('action', 0.0):9.1f} "
            f"{p.tier_response_ms.get('standard', 0.0):11.1f} "
            f"{p.tier_response_ms.get('tolerant', 0.0):11.1f}"
        )
    return "\n".join(lines)
