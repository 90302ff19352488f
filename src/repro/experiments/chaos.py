"""Experiment CH: chaos sweep — robustness under injected faults.

Not a paper figure: the paper's evaluation runs on a clean testbed, but its
design claims (§IV-B reliable-UDP ARQ, §V multi-device load balancing,
frame-watchdog failover) are precisely about surviving a messy living
room.  This sweep scripts escalating fault scenarios through the
:mod:`repro.faults` subsystem and reports what the player actually
experiences: frames lost forever, failovers taken, nodes condemned, and
the FPS floor.

Scenario template per severity step:

* a loss burst early in the session (retransmission pressure),
* a hard link outage mid-session (ARQ give-up pressure), and
* optionally a node crash (watchdog + re-dispatch pressure).

The invariant asserted by the smoke test: **no frame is ever lost** —
every issued frame is presented remotely, by a surviving node, or by the
local GPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.apps.base import ApplicationSpec
from repro.apps.games import GTA_SAN_ANDREAS
from repro.core.config import GBoosterConfig
from repro.core.session import SessionResult, run_offload_session
from repro.devices.profiles import DeviceSpec, LG_NEXUS_5, NVIDIA_SHIELD
from repro.faults import FaultSchedule


@dataclass
class ChaosPoint:
    """Outcome of one fault scenario."""

    loss_probability: float
    outage_ms: float
    crash: bool
    median_fps: float
    min_fps: float
    frames_issued: int
    frames_lost: int
    failovers: int
    nodes_failed: int
    retransmissions: int
    #: conservation-law breaks caught by the invariant monitor (``check``)
    invariant_violations: int = 0

    @property
    def survived(self) -> bool:
        """The headline robustness claim: nothing is ever lost."""
        return self.frames_lost == 0


def build_schedule(
    loss_probability: float,
    outage_ms: float,
    crash: bool,
    duration_ms: float,
) -> FaultSchedule:
    """The escalating scenario used at every sweep point."""
    schedule = FaultSchedule()
    if loss_probability > 0:
        schedule.loss_burst(
            at_ms=0.2 * duration_ms,
            duration_ms=0.15 * duration_ms,
            loss_probability=loss_probability,
        )
    if outage_ms > 0:
        schedule.outage(at_ms=0.45 * duration_ms, duration_ms=outage_ms)
    if crash:
        schedule.crash(at_ms=0.7 * duration_ms)
    return schedule


def run_chaos_point(
    loss_probability: float = 0.3,
    outage_ms: float = 1_000.0,
    crash: bool = True,
    app: ApplicationSpec = GTA_SAN_ANDREAS,
    user_device: DeviceSpec = LG_NEXUS_5,
    service_devices: Optional[Sequence[DeviceSpec]] = None,
    duration_ms: float = 30_000.0,
    seed: int = 0,
    frame_timeout_ms: float = 600.0,
    check: bool = False,
) -> ChaosPoint:
    """Run one scenario and fold the session into a :class:`ChaosPoint`.

    ``check=True`` arms the runtime invariant monitor, so the point also
    reports whether any conservation law broke under the injected faults.
    """
    config = GBoosterConfig(
        frame_timeout_ms=frame_timeout_ms,
        faults=build_schedule(loss_probability, outage_ms, crash,
                              duration_ms),
        check=check,
    )
    result: SessionResult = run_offload_session(
        app, user_device,
        service_devices=list(service_devices or [NVIDIA_SHIELD]),
        config=config, duration_ms=duration_ms, seed=seed,
    )
    frames = result.engine.frames
    lost = sum(1 for f in frames if f.presented_at is None)
    return ChaosPoint(
        loss_probability=loss_probability,
        outage_ms=outage_ms,
        crash=crash,
        median_fps=result.fps.median_fps,
        min_fps=min(result.fps.fps_series) if result.fps.fps_series else 0.0,
        frames_issued=len(frames),
        frames_lost=lost,
        failovers=result.client_stats.failovers,
        nodes_failed=result.client_stats.nodes_failed,
        retransmissions=_total_retransmissions(result),
        invariant_violations=(
            len(result.check.violations) if result.check is not None else 0
        ),
    )


def _total_retransmissions(result: SessionResult) -> int:
    # The counter, not the retransmit marks: the span ring is bounded, so
    # counting its marks undercounts once it wraps.
    return int(
        result.engine.sim.metrics.counter("transport.retransmissions").value
    )


def run_chaos_sweep(
    loss_levels: Sequence[float] = (0.0, 0.1, 0.3, 0.5),
    outage_levels_ms: Sequence[float] = (0.0, 1_000.0, 3_000.0),
    crash: bool = True,
    app: ApplicationSpec = GTA_SAN_ANDREAS,
    user_device: DeviceSpec = LG_NEXUS_5,
    service_devices: Optional[Sequence[DeviceSpec]] = None,
    duration_ms: float = 30_000.0,
    seed: int = 0,
) -> List[ChaosPoint]:
    """Sweep loss × outage severity (each with the optional crash)."""
    points: List[ChaosPoint] = []
    for loss in loss_levels:
        for outage in outage_levels_ms:
            points.append(
                run_chaos_point(
                    loss_probability=loss, outage_ms=outage, crash=crash,
                    app=app, user_device=user_device,
                    service_devices=service_devices,
                    duration_ms=duration_ms, seed=seed,
                )
            )
    return points


def format_points(points: Sequence[ChaosPoint]) -> str:
    lines = [
        f"{'loss':>5} {'outage':>7} {'crash':>5} {'median':>7} "
        f"{'lost':>5} {'failovers':>9} {'retrans':>8}"
    ]
    for p in points:
        lines.append(
            f"{p.loss_probability:>5.0%} {p.outage_ms / 1000.0:>6.1f}s "
            f"{'yes' if p.crash else 'no':>5} {p.median_fps:>6.1f}f "
            f"{p.frames_lost:>5} {p.failovers:>9} {p.retransmissions:>8}"
        )
    survived = sum(1 for p in points if p.survived)
    lines.append(f"\n{survived}/{len(points)} scenarios with zero lost frames")
    return "\n".join(lines)
