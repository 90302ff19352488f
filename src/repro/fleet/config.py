"""Fleet control-plane configuration: what fleet experiments vary.

Admission, the serving model, the replay and planner layers, checking and
faults stay here because experiments and tests set them (the capacity
sweep provisions a slower serve rate and a deeper pipeline; crash runs
inject faults).  Timings and factors nothing varies (heartbeat,
discovery, control sweep, rebalance threshold, migration snapshot,
warm-session cost) are module constants beside their readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.faults.schedule import FaultSchedule


@dataclass
class FleetConfig:
    # -- admission -----------------------------------------------------------
    #: admitted aggregate demand may exceed aggregate capacity by this
    #: factor (sessions self-throttle through their bounded pipelines, so
    #: moderate oversubscription trades tail latency for throughput,
    #: exactly like an airline selling more seats than the cabin holds)
    admission_oversubscription: float = 3.0
    #: sessions waiting for capacity beyond this are rejected outright
    max_wait_queue: int = 32

    # -- rebalancing ---------------------------------------------------------
    #: migrations per control sweep (bounded to avoid thrash)
    max_moves_per_cycle: int = 2

    # -- session serving model ----------------------------------------------
    #: per-session frame issue rate the fleet guarantees capacity against
    serve_rate_hz: float = 30.0
    #: in-flight frames per session (the rewritten SwapBuffer's bound)
    pipeline_depth: int = 3

    # -- record-once / replay-many (repro.replay) ----------------------------
    #: arm a controller-owned :class:`~repro.replay.ReplayHub`: the first
    #: session of a title records its intervals, every later session of
    #: the same title is served warm from the shared store (replay is
    #: incompatible with kernel sharding — per-shard hubs would break the
    #: content-address invariance — so sharded sweeps leave this off)
    replay: bool = False

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
        for name in ("admission_oversubscription", "serve_rate_hz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{name} must be finite and positive, got {value}"
                )
        if self.max_wait_queue < 0:
            raise ValueError("max_wait_queue must be non-negative")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be at least 1")
        if self.faults is not None:
            self.faults.validate()
