"""Session placement: Eq. 4 generalized from requests to sessions.

The paper's dispatch scheduler answers "which device should render *this
frame*?" by minimizing ``(w^j + r)/c^j + l^j``.  The fleet asks the same
question once per *session*: the request workload ``r`` becomes one
second of the session's steady-state fill demand, the queued workload
``w^j`` becomes the demand already committed to the device (its
heartbeat-reported backlog plus placed sessions), and the winner hosts
the session until a rebalance or a crash moves it.

Rebalancing watches the committed-utilization spread.  When the hottest
device exceeds the coolest by more than ``REBALANCE_THRESHOLD`` it moves
the smallest-demand, most-latency-tolerant session from hot to cool —
tolerant first because a migration costs its victim a state-replay stall
the action tier cannot afford; smallest first because it narrows the gap
with the least disruption.  Moves per sweep and per-session cooldown are
both bounded to keep the control loop from thrashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dispatch.scheduler import DeviceEstimate, DispatchScheduler
from repro.fleet.config import FleetConfig
from repro.fleet.node import FleetNode
from repro.fleet.session import FleetSession
from repro.sim.kernel import Simulator

#: max-min committed-utilization gap that triggers a migration
REBALANCE_THRESHOLD = 0.35
#: a session migrated more recently than this is left alone
MIGRATION_COOLDOWN_MS = 2_000.0


@dataclass
class PlannedMove:
    session: FleetSession
    source: FleetNode
    target: FleetNode


class SessionPlacer:
    """Chooses a home node for each session; plans rebalancing moves."""

    def __init__(self, sim: Simulator, config: FleetConfig):
        self.sim = sim
        self.config = config
        self.scheduler = DispatchScheduler()

    # -- initial placement ---------------------------------------------------

    def place(
        self,
        session: FleetSession,
        nodes: Sequence[FleetNode],
        committed_mp_per_ms: Dict[str, float],
        rtt_ms: Dict[str, float],
        plan_bias_ms: Optional[Dict[str, float]] = None,
    ) -> FleetNode:
        """Eq. 4 over per-device committed demand; returns the home node.

        ``plan_bias_ms`` (from a planner-enabled controller) adds each
        device's predicted service-stage cost for *this* title to its
        completion estimate, so two devices with equal queues diverge on
        how fast they actually render this app's frames.
        """
        candidates = [n for n in nodes if not n.failed]
        if not candidates:
            raise ValueError("no live fleet nodes to place on")
        bias = plan_bias_ms or {}
        estimates = [
            DeviceEstimate(
                n.name,
                # One second of committed session demand plus the live
                # backlog: both in fill megapixels.
                committed_mp_per_ms.get(n.name, 0.0) * 1000.0
                + n.queued_workload_mp,
                n.capacity_mp_per_ms,
                rtt_ms.get(n.name, 0.0),
                bias.get(n.name, 0.0),
            )
            for n in candidates
        ]
        chosen = self.scheduler.choose(
            session.demand_mp_per_ms * 1000.0, estimates
        )
        by_name = {n.name: n for n in candidates}
        return by_name[chosen.name]

    # -- rebalancing ---------------------------------------------------------

    def utilization(
        self, node: FleetNode, committed_mp_per_ms: Dict[str, float]
    ) -> float:
        cap = node.capacity_mp_per_ms
        if cap <= 0:
            return float("inf")
        return committed_mp_per_ms.get(node.name, 0.0) / cap

    def plan_rebalance(
        self,
        sessions_by_node: Dict[str, List[FleetSession]],
        nodes: Sequence[FleetNode],
        committed_mp_per_ms: Dict[str, float],
    ) -> List[PlannedMove]:
        """Plan up to ``max_moves_per_cycle`` hot-to-cool migrations."""
        live = [n for n in nodes if not n.failed]
        if len(live) < 2:
            return []
        committed = dict(committed_mp_per_ms)
        moves: List[PlannedMove] = []
        for _ in range(self.config.max_moves_per_cycle):
            ranked = sorted(
                live, key=lambda n: (self.utilization(n, committed), n.name)
            )
            coolest, hottest = ranked[0], ranked[-1]
            gap = self.utilization(hottest, committed) - self.utilization(
                coolest, committed
            )
            if gap <= REBALANCE_THRESHOLD:
                break
            victim = self._pick_victim(
                sessions_by_node.get(hottest.name, []), moves
            )
            if victim is None:
                break
            moves.append(PlannedMove(victim, hottest, coolest))
            committed[hottest.name] = (
                committed.get(hottest.name, 0.0) - victim.demand_mp_per_ms
            )
            committed[coolest.name] = (
                committed.get(coolest.name, 0.0) + victim.demand_mp_per_ms
            )
        return moves

    def _pick_victim(
        self, candidates: List[FleetSession], planned: List[PlannedMove]
    ) -> Optional[FleetSession]:
        """Most tolerant tier first, then smallest demand, then id."""
        already = {m.session.session_id for m in planned}
        eligible = [
            s for s in candidates
            if s.session_id not in already
            and self.sim.now - s.last_migration_ms >= MIGRATION_COOLDOWN_MS
        ]
        if not eligible:
            return None
        return min(
            eligible,
            key=lambda s: (-s.priority, s.demand_mp_per_ms, s.session_id),
        )
