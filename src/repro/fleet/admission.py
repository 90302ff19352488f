"""Session admission against aggregate pool capacity.

Every incoming :class:`~repro.fleet.session.SessionRequest` carries a
steady-state fill demand (MP/ms at the fleet's serve rate).  Admission
compares committed demand against aggregate *up* capacity scaled by the
oversubscription factor:

* fits -> **admit** immediately;
* over budget -> **queue**, ordered by QoS priority then arrival;
* queue full -> **reject** (the client falls back to local rendering,
  exactly the no-device path of paper §VIII).

Queued sessions drain on every capacity event: a session ending, a
device rejoining, the periodic control sweep.  Waiting is bounded by the
queue length, not a timer — a fleet rejecting early beats one that holds
players in limbo.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fleet.config import FleetConfig
from repro.fleet.session import SessionRequest
from repro.sim.kernel import Simulator


@dataclass
class AdmissionStats:
    """Admission ledger.

    ``admitted`` counts every session that ever *became* admitted —
    directly at :meth:`AdmissionController.decide` time or later when
    :meth:`AdmissionController.pop_eligible` dequeued it (``dequeued``
    counts the latter subset).  ``queued`` counts sessions that ever
    waited.  The reconciliation identity the ``repro.check`` fleet pack
    asserts:

        ``offered == admitted + rejected + waiting``

    where ``waiting`` is the controller's current queue length — every
    offered session is admitted, rejected, or still in line.
    """

    offered: int = 0
    admitted: int = 0
    queued: int = 0
    rejected: int = 0
    #: queued sessions later admitted (a subset of both counters above)
    dequeued: int = 0
    by_tier: Dict[str, Dict[str, int]] = field(default_factory=dict)
    wait_times_ms: List[float] = field(default_factory=list)

    def count(self, tier: str, outcome: str) -> None:
        bucket = self.by_tier.setdefault(
            tier, {"admitted": 0, "queued": 0, "rejected": 0}
        )
        bucket[outcome] += 1
        setattr(self, outcome, getattr(self, outcome) + 1)

    def count_dequeued(self, tier: str) -> None:
        """A queued session became admitted: count the transition.

        The session was already counted ``queued`` at decide time, so
        only the admitted side moves — never ``queued`` again.
        """
        self.dequeued += 1
        self.count(tier, "admitted")

    def reconciles(self, waiting: int) -> bool:
        """Does the ledger balance against ``waiting`` queued sessions?"""
        return self.offered == self.admitted + self.rejected + waiting


class AdmissionController:
    """Accepts, queues or rejects sessions against pool capacity."""

    def __init__(self, sim: Simulator, config: FleetConfig):
        self.sim = sim
        self.config = config
        self.stats = AdmissionStats()
        #: (priority, arrival_seq, request) — most urgent first, FIFO ties
        self._waiting: List[Tuple[float, int, SessionRequest]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._waiting)

    def budget_mp_per_ms(self, capacity_mp_per_ms: float) -> float:
        return capacity_mp_per_ms * self.config.admission_oversubscription

    def decide(
        self,
        request: SessionRequest,
        committed_mp_per_ms: float,
        capacity_mp_per_ms: float,
        placeable: bool = True,
    ) -> str:
        """Returns "admit", "queue" or "reject" and records the outcome.
        A session that fits but is not ``placeable`` (no node is live)
        waits in the queue."""
        self.stats.offered += 1
        demand = request.demand_mp_per_ms(self.config.serve_rate_hz)
        budget = self.budget_mp_per_ms(capacity_mp_per_ms)
        fits = committed_mp_per_ms + demand <= budget
        if placeable and capacity_mp_per_ms > 0 and fits:
            self.stats.count(request.tier, "admitted")
            return "admit"
        if capacity_mp_per_ms > 0 and demand > budget:
            # Could never fit even an empty pool; queueing it would wedge
            # the strict-priority head of line forever.
            self.stats.count(request.tier, "rejected")
            return "reject"
        if len(self._waiting) >= self.config.max_wait_queue:
            self.stats.count(request.tier, "rejected")
            return "reject"
        heapq.heappush(
            self._waiting, (request.priority, self._seq, request)
        )
        self._seq += 1
        self.stats.count(request.tier, "queued")
        return "queue"

    def pop_eligible(
        self, committed_mp_per_ms: float, capacity_mp_per_ms: float
    ) -> List[SessionRequest]:
        """Admit waiting sessions that now fit, most urgent first.

        Strict priority order: if the head of the queue does not fit the
        remaining budget, nothing behind it is admitted either — letting
        a small tolerant session leapfrog a big action session would
        starve exactly the tier the fleet exists to protect.
        """
        out: List[SessionRequest] = []
        budget = self.budget_mp_per_ms(capacity_mp_per_ms)
        committed = committed_mp_per_ms
        while self._waiting:
            prio, seq, request = self._waiting[0]
            demand = request.demand_mp_per_ms(self.config.serve_rate_hz)
            if capacity_mp_per_ms <= 0 or committed + demand > budget:
                break
            heapq.heappop(self._waiting)
            committed += demand
            # The dequeued->admitted transition: without it the ledger
            # undercounts admissions for every session that waited, and
            # ``admitted + rejected + len(queue)`` stops reconciling with
            # the sessions offered.
            self.stats.count_dequeued(request.tier)
            self.stats.wait_times_ms.append(self.sim.now - request.arrival_ms)
            out.append(request)
        return out

    @property
    def mean_wait_ms(self) -> float:
        if not self.stats.wait_times_ms:
            return 0.0
        return sum(self.stats.wait_times_ms) / len(self.stats.wait_times_ms)
