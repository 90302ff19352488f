"""The benchmark's four workloads and what one op of each produces.

Every op is one call into a public entry point of ``repro``
(``run_offload_session`` or ``run_fleet_point``) with a seed the caller
derives; the result is reduced here to an :class:`Outcome` holding only
what the metrics, the failure rules and the determinism fingerprint need.
Why each workload exists is recorded in ``bench/README.md``.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from repro import GBoosterConfig, SessionResult, run_offload_session
from repro.apps.base import ApplicationSpec
from repro.apps.games import GTA_SAN_ANDREAS, STAR_WARS_KOTOR
from repro.devices.profiles import (
    LG_G5,
    LG_NEXUS_5,
    MINIX_NEO_U1,
    NVIDIA_SHIELD,
    DeviceSpec,
)
from repro.experiments.fleet import run_fleet_point
from repro.sim.kernel import Simulator

SESSION_MS = 5_000.0
FLEET_SESSIONS = 128
FLEET_DEVICES = 16
FLEET_MS = 10_000.0

#: every observation and checking switch a session config offers
OBSERVED = dict(
    telemetry=True, causal_tracing=True, flight_recorder=True, check=True
)


@dataclass
class Outcome:
    """The simulated outputs of one op."""

    #: simulated seconds the op covered (sessions x duration for a fleet)
    sim_s: float
    #: frames per simulated second of one session
    fps: float
    #: response time of every frame presented (after the engine's warm-up,
    #: for a session); an array, because a fleet op has thousands and a
    #: run keeps a pass of them, which would otherwise add to peak_rss_mb
    response_ms: array
    #: uplink and power exist for sessions only; the fleet models neither
    uplink_bytes: int = 0
    uplink_frames: int = 0
    power_w: float = 0.0
    #: per-layer event counts: cache_hits, cache_lookups, wire_reduction,
    #: retransmissions, migrations, spans
    counts: Dict[str, float] = field(default_factory=dict)
    fingerprint: str = ""
    #: why the op counts as failed, or None
    failure: Optional[str] = None

    @property
    def frames(self) -> int:
        return len(self.response_ms)


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``op(seed)`` runs one op
    op: Callable[[int], Outcome]


def _fingerprint(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _obs_counts(sim: Simulator) -> Dict[str, float]:
    return {
        "retransmissions": sim.metrics.counter("transport.retransmissions").value,
        "spans": len(sim.spans.spans) + sim.spans.dropped,
    }


def _session_outcome(result: SessionResult) -> Outcome:
    frames = result.engine.presented_frames()
    stats = result.client_stats
    cache = result.engine.backend.pipeline.cache.sender.stats
    failure = None
    if not frames:
        failure = "no frame presented"
    elif result.check is not None and result.check.violations:
        failure = f"{len(result.check.violations)} invariant violations"
    elif result.check is not None and not result.check.ok:
        failure = "check failed"
    return Outcome(
        sim_s=SESSION_MS / 1000.0,
        fps=(
            result.fps.frame_count / result.fps.session_seconds
            if result.fps.session_seconds > 0 else 0.0
        ),
        response_ms=array("d", (f.response_time_ms for f in frames)),
        uplink_bytes=stats.uplink_bytes,
        uplink_frames=stats.frames_submitted,
        power_w=result.energy.mean_power_w,
        counts={
            "cache_hits": cache.hits,
            "cache_lookups": cache.lookups,
            "wire_reduction": stats.traffic_reduction(),
            "migrations": 0,
            **_obs_counts(result.device.sim),
        },
        fingerprint=_fingerprint(
            [(f.frame_id, f.issued_at, f.presented_at) for f in frames],
            stats.uplink_bytes,
            stats.downlink_bytes,
            stats.raw_command_bytes,
            stats.state_bytes_multicast,
            result.energy.total_j,
            result.t_p_ms,
        ),
        failure=failure,
    )


def _session_op(
    app: ApplicationSpec,
    user: DeviceSpec,
    services: Sequence[DeviceSpec],
    **switches: bool,
) -> Callable[[int], Outcome]:
    def op(seed: int) -> Outcome:
        return _session_outcome(run_offload_session(
            app, user, services, config=GBoosterConfig(**switches),
            duration_ms=SESSION_MS, seed=seed,
        ))

    return op


class _FrameResponses:
    """Takes the place of the simulator's telemetry hub in a fleet op and
    keeps only the per-frame response times the fleet reports to it."""

    def __init__(self) -> None:
        self.ms = array("d")

    def observe(self, name: str, value: float = 1.0, **_: object) -> None:
        if name == "fleet.frame_response_ms":
            self.ms.append(value)


def _fleet_op(seed: int) -> Outcome:
    sim = Simulator(seed=seed)
    sim.telemetry = responses = _FrameResponses()
    point, _ = run_fleet_point(
        FLEET_SESSIONS, FLEET_DEVICES, FLEET_MS, seed=seed, crash=True, sim=sim,
    )
    failure = None
    if point.frames == 0:
        failure = "no frame presented"
    elif point.frames_lost:
        failure = f"{point.frames_lost} frames lost"
    elif point.finished < point.admitted:
        failure = f"{point.finished} of {point.admitted} admitted sessions finished"
    elif point.invariant_violations:
        failure = f"{point.invariant_violations} invariant violations"
    sim_s = FLEET_SESSIONS * FLEET_MS / 1000.0
    return Outcome(
        sim_s=sim_s,
        fps=point.frames / sim_s,
        response_ms=responses.ms,
        counts={
            "cache_hits": 0,
            "cache_lookups": 0,
            "wire_reduction": 0.0,
            "migrations": point.migrations,
            **_obs_counts(sim),
        },
        fingerprint=_fingerprint(point),
        failure=failure,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "session_g3", _session_op(STAR_WARS_KOTOR, LG_G5, [NVIDIA_SHIELD])
        ),
        Workload(
            "wire_g1_multi",
            _session_op(
                GTA_SAN_ANDREAS, LG_NEXUS_5, [NVIDIA_SHIELD, MINIX_NEO_U1],
                modelled_compression=False,
            ),
        ),
        Workload(
            "observed_g3",
            _session_op(STAR_WARS_KOTOR, LG_G5, [NVIDIA_SHIELD], **OBSERVED),
        ),
        Workload("fleet_128x16", _fleet_op),
    )
}
