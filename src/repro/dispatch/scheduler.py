"""Request assignment across service devices (paper Eq. 4).

Each request of workload ``r`` goes to the device ``j`` minimizing

    (w^j + r) / c^j + l^j

where ``w^j`` is the workload already queued on the device, ``c^j`` its
capability (workload units per millisecond) and ``l^j`` its round-trip
delay to the user device.  Workloads are the same shader-weighted fill
megapixels the GPU model executes, profiled per command stream as in the
paper's TimeGraph-based approach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol, Sequence


@dataclass(slots=True)
class DeviceEstimate:
    """The scheduler's view of one service device.

    Slotted: every dispatch and placement builds one per live device,
    positionally, in field order.
    """

    name: str
    queued_workload: float        # w^j, in fill megapixels
    capability: float             # c^j, megapixels per millisecond
    rtt_ms: float                 # l^j
    #: planner-supplied per-device bias (repro.plan): the predicted
    #: service-stage cost of *this* title on *this* device, so placement
    #: prefers the device the committed plan renders fastest on.  Zero
    #: reproduces plain Eq. 4.
    plan_bias_ms: float = 0.0

    def completion_estimate_ms(self, request_workload: float) -> float:
        if self.capability <= 0:
            return float("inf")
        return (
            (self.queued_workload + request_workload) / self.capability
            + self.rtt_ms
            + self.plan_bias_ms
        )


#: observer invoked on every assignment with (request_workload, chosen);
#: the client uses it to emit dispatch marks and per-node counters
AssignObserver = Callable[[float, DeviceEstimate], None]


class DispatchScheduler:
    """Eq. 4: minimize estimated completion time."""

    def __init__(self, on_assign: Optional[AssignObserver] = None) -> None:
        self.assignments: List[str] = []
        self.on_assign = on_assign

    def choose(
        self, request_workload: float, devices: Sequence[DeviceEstimate]
    ) -> DeviceEstimate:
        if not devices:
            raise ValueError("no service devices available")
        if request_workload < 0:
            raise ValueError(f"negative workload {request_workload}")
        best = min(
            devices,
            key=lambda d: (
                d.completion_estimate_ms(request_workload),
                d.name,   # deterministic tie-break
            ),
        )
        self.assignments.append(best.name)
        if self.on_assign is not None:
            self.on_assign(request_workload, best)
        return best


class RoundRobinScheduler:
    """Ablation baseline: ignore workload, capability and latency."""

    def __init__(self, on_assign: Optional[AssignObserver] = None) -> None:
        self.assignments: List[str] = []
        self.on_assign = on_assign
        self._next = 0

    def choose(
        self, request_workload: float, devices: Sequence[DeviceEstimate]
    ) -> DeviceEstimate:
        if not devices:
            raise ValueError("no service devices available")
        chosen = devices[self._next % len(devices)]
        self._next += 1
        self.assignments.append(chosen.name)
        if self.on_assign is not None:
            self.on_assign(request_workload, chosen)
        return chosen
