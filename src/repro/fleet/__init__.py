"""The fleet control plane: many sessions over a shared device pool.

Paper §VIII sketches GBooster "towards multiple users"; this package
takes the sketch to a serving fleet:

* :mod:`repro.fleet.registry` — device membership fed by LAN discovery,
  with heartbeat liveness carrying real queued workload.
* :mod:`repro.fleet.admission` — accept/queue/reject sessions against
  aggregate capacity, with QoS tiers from ``GENRE_PRIORITY``.
* :mod:`repro.fleet.placement` — the Eq. 4 dispatch scheduler lifted
  from per-request to per-session placement, plus rebalancing.
* :mod:`repro.fleet.node` / :mod:`repro.fleet.session` — the serving
  data plane: priority work queues charging ServiceNode-calibrated
  per-frame costs, sessions with bounded pipelines.
* :mod:`repro.fleet.controller` — the control loop tying it together,
  including zero-frame-loss live migration off crashed devices.
* :mod:`repro.fleet.arrivals` — parameterized arrival-curve schedules
  (steady / diurnal / flash crowd) for capacity planning.
* :mod:`repro.fleet.runner` — the one fleet run every experiment uses:
  build the controller, launch the arrivals, serve to the horizon; and
  its partitioned case, a shard of a sharded run.
"""

from repro.fleet.admission import AdmissionController, AdmissionStats
from repro.fleet.arrivals import (
    STANDARD_CURVES,
    ArrivalCurve,
    arrival_offsets,
    diurnal,
    flash_crowd,
    steady,
)
from repro.fleet.config import FleetConfig
from repro.fleet.controller import FleetController
from repro.fleet.node import STATE_PRIORITY, FleetNode, FrameTask
from repro.fleet.placement import PlannedMove, SessionPlacer
from repro.fleet.registry import DeviceRegistry, Heartbeat, RegisteredDevice
from repro.fleet.runner import Arrival, FleetRun
from repro.fleet.session import (
    TIER_NAMES,
    FleetSession,
    SessionRequest,
    tier_name,
)

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "Arrival",
    "ArrivalCurve",
    "STANDARD_CURVES",
    "arrival_offsets",
    "steady",
    "diurnal",
    "flash_crowd",
    "DeviceRegistry",
    "FleetConfig",
    "FleetController",
    "FleetNode",
    "FleetRun",
    "FleetSession",
    "FrameTask",
    "Heartbeat",
    "PlannedMove",
    "RegisteredDevice",
    "STATE_PRIORITY",
    "SessionRequest",
    "SessionPlacer",
    "TIER_NAMES",
    "tier_name",
]
