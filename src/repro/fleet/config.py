"""Fleet control-plane configuration.

Every serving-layer policy knob in one dataclass, mirroring the style of
:class:`~repro.core.config.GBoosterConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults.schedule import FaultSchedule


@dataclass
class FleetConfig:
    # -- registry / liveness -------------------------------------------------
    #: how often a registered device reports its queued workload
    heartbeat_interval_ms: float = 250.0
    #: a device silent for this long is declared lost (3 missed beats)
    heartbeat_timeout_ms: float = 750.0
    #: discovery probe deadline per bootstrap round
    discovery_timeout_ms: float = 500.0
    #: bootstrap probe rounds before serving starts with whatever answered
    discovery_rounds: int = 3

    # -- control loop --------------------------------------------------------
    #: period of the placement/rebalancing sweep
    control_interval_ms: float = 500.0

    # -- admission -----------------------------------------------------------
    #: admitted aggregate demand may exceed aggregate capacity by this
    #: factor (sessions self-throttle through their bounded pipelines, so
    #: moderate oversubscription trades tail latency for throughput,
    #: exactly like an airline selling more seats than the cabin holds)
    admission_oversubscription: float = 3.0
    #: sessions waiting for capacity beyond this are rejected outright
    max_wait_queue: int = 32

    # -- placement / rebalancing --------------------------------------------
    #: max-min committed-utilization gap that triggers a migration
    rebalance_threshold: float = 0.35
    #: migrations per control sweep (bounded to avoid thrash)
    max_moves_per_cycle: int = 2
    #: a session migrated more recently than this is left alone
    migration_cooldown_ms: float = 2_000.0

    # -- session serving model ----------------------------------------------
    #: per-session frame issue rate the fleet guarantees capacity against
    serve_rate_hz: float = 30.0
    #: in-flight frames per session (the rewritten SwapBuffer's bound)
    pipeline_depth: int = 3

    # -- live migration ------------------------------------------------------
    #: GL context snapshot replayed on the target node when a session
    #: migrates, as a multiple of the app's nominal per-frame commands
    #: (textures, buffers, programs — a bounded working set)
    migration_state_factor: float = 1.5

    # -- record-once / replay-many (repro.replay) ----------------------------
    #: arm a controller-owned :class:`~repro.replay.ReplayHub`: the first
    #: session of a title records its intervals, every later session of
    #: the same title is served warm from the shared store (replay is
    #: incompatible with kernel sharding — per-shard hubs would break the
    #: content-address invariance — so sharded sweeps leave this off)
    replay: bool = False
    #: per-title store budget for the controller's hub
    replay_store_bytes: int = 4 << 20
    #: fraction of the nominal per-frame command work a warm (replay-served)
    #: session still costs its node; calibrated against the single-session
    #: warm/cold server-time ratio of the R4 bench (~20x cheaper)
    replay_warm_factor: float = 0.05

    # -- plan-aware placement (repro.plan) -----------------------------------
    #: bias Eq. 4 placement by each device's predicted service-stage cost
    #: for the session's title, and advertise served titles in heartbeats
    #: so the planner's multicast candidate can see co-located viewers
    planner: bool = False

    # -- correctness checking (repro.check) ----------------------------------
    #: arm a runtime :class:`~repro.check.InvariantMonitor` on the
    #: controller's simulator (session ownership, frame conservation,
    #: capacity accounting, timer hygiene)
    check: bool = False

    # -- fault injection -----------------------------------------------------
    #: declarative crash/rejoin scenario against the device pool; only
    #: :class:`~repro.faults.schedule.NodeCrash` events apply at fleet
    #: level (link faults act on a single user's radios, which the fleet
    #: abstraction does not model)
    faults: Optional[FaultSchedule] = None

    def validate(self) -> None:
        if self.heartbeat_interval_ms <= 0:
            raise ValueError("heartbeat_interval_ms must be positive")
        if self.heartbeat_timeout_ms < 2 * self.heartbeat_interval_ms:
            raise ValueError(
                "heartbeat_timeout_ms must cover at least two intervals"
            )
        if self.discovery_rounds < 1:
            raise ValueError("discovery_rounds must be at least 1")
        if self.control_interval_ms <= 0:
            raise ValueError("control_interval_ms must be positive")
        if self.admission_oversubscription <= 0:
            raise ValueError("admission_oversubscription must be positive")
        if self.max_wait_queue < 0:
            raise ValueError("max_wait_queue must be non-negative")
        if not 0.0 < self.rebalance_threshold:
            raise ValueError("rebalance_threshold must be positive")
        if self.serve_rate_hz <= 0:
            raise ValueError("serve_rate_hz must be positive")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be at least 1")
        if self.migration_state_factor < 0:
            raise ValueError("migration_state_factor must be non-negative")
        if self.replay_store_bytes <= 0:
            raise ValueError("replay_store_bytes must be positive")
        if not 0.0 < self.replay_warm_factor <= 1.0:
            raise ValueError("replay_warm_factor must be in (0, 1]")
        if self.faults is not None:
            self.faults.validate()
