"""Arming a :class:`~repro.faults.schedule.FaultSchedule` on a live session.

The injector owns the mapping from declarative fault events to the runtime
hooks underneath:

* node crash/rejoin  -> :meth:`ServiceNode.fail` / :meth:`ServiceNode.rejoin`
                        (+ :meth:`GBoosterClient.mark_recovered` on rejoin)
* link outage        -> a 1.0 loss impairment on the affected
                        :class:`~repro.net.link.NetworkLink` s
* loss burst         -> a probabilistic impairment on the same links
* radio degradation  -> a bandwidth factor on the user device's radios

Everything is scheduled through ``sim.call_at`` on the session's own
simulator, so fault runs replay deterministically with the session seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.schedule import (
    FaultEvent,
    FaultSchedule,
    LinkOutage,
    LossBurst,
    NodeCrash,
    RadioDegradation,
)
from repro.net.link import NetworkLink
from repro.sim.kernel import Simulator


@dataclass
class InjectedFault:
    """One entry of the injector's applied-fault log."""

    time_ms: float
    kind: str                       # "crash" | "rejoin" | "outage" | ...
    phase: str                      # "start" | "end" | "fire"
    detail: Dict[str, object] = field(default_factory=dict)


class FaultInjector:
    """Schedules a fault scenario against a running offload session."""

    def __init__(
        self,
        sim: Simulator,
        schedule: FaultSchedule,
        nodes: Sequence[object],
        client: Optional[object] = None,
        uplink_links: Sequence[NetworkLink] = (),
        downlink_links: Sequence[NetworkLink] = (),
        network: Optional[object] = None,
    ):
        self.sim = sim
        self.schedule = schedule
        self.nodes = list(nodes)
        self.client = client
        self.uplink_links = list(uplink_links)
        self.downlink_links = list(downlink_links)
        self.network = network
        self.log: List[InjectedFault] = []
        schedule.validate(n_nodes=len(self.nodes))

    # -- arming -------------------------------------------------------------

    def arm(self) -> None:
        """Register every scheduled fault with the simulator."""
        for event in self.schedule:
            if isinstance(event, NodeCrash):
                self._arm_crash(event)
            elif isinstance(event, LinkOutage):
                self._arm_window(
                    "outage", event.at_ms, event.duration_ms,
                    links=self._links(event.direction), loss=1.0,
                )
            elif isinstance(event, LossBurst):
                self._arm_window(
                    "loss_burst", event.at_ms, event.duration_ms,
                    links=self._links(event.direction),
                    loss=event.loss_probability,
                )
            elif isinstance(event, RadioDegradation):
                self._arm_degradation(event)
            else:  # pragma: no cover - schedule.validate rejects these
                raise TypeError(f"unknown fault event {event!r}")

    # -- node crash/rejoin ----------------------------------------------------

    def _arm_crash(self, event: NodeCrash) -> None:
        node = self.nodes[event.node]

        def _crash() -> None:
            node.fail()
            self._record("crash", "fire", node=node.name)

        self.sim.call_at(event.at_ms, _crash)
        if event.rejoin_at_ms is not None:
            def _rejoin() -> None:
                node.rejoin()
                if self.client is not None:
                    self.client.mark_recovered(node.name)
                self._record("rejoin", "fire", node=node.name)

            self.sim.call_at(event.rejoin_at_ms, _rejoin)

    # -- link windows -----------------------------------------------------------

    def _links(self, direction: str) -> List[NetworkLink]:
        links: List[NetworkLink] = []
        if direction in ("uplink", "both"):
            links.extend(self.uplink_links)
        if direction in ("downlink", "both"):
            links.extend(self.downlink_links)
        return links

    def _arm_window(
        self, kind: str, at_ms: float, duration_ms: float,
        links: Sequence[NetworkLink], loss: float,
    ) -> None:
        links = list(links)

        def _start() -> None:
            for link in links:
                link.add_impairment(loss)
            self._record(kind, "start", loss=loss, links=len(links))

        def _end() -> None:
            for link in links:
                link.remove_impairment(loss)
            self._record(kind, "end", loss=loss, links=len(links))

        self.sim.call_at(at_ms, _start)
        self.sim.call_at(at_ms + duration_ms, _end)

    # -- radio degradation ---------------------------------------------------------

    def _radios(self, which: str) -> List[object]:
        if self.network is None:
            return []
        radios = []
        if which in ("wifi", "all"):
            radios.append(self.network.wifi)
        if which in ("bluetooth", "all"):
            radios.append(self.network.bluetooth)
        return radios

    def _arm_degradation(self, event: RadioDegradation) -> None:
        radios = self._radios(event.radio)

        def _start() -> None:
            for radio in radios:
                radio.degrade(event.bandwidth_factor)
            self._record("degradation", "start",
                         factor=event.bandwidth_factor, radio=event.radio)

        def _end() -> None:
            for radio in radios:
                radio.restore(event.bandwidth_factor)
            self._record("degradation", "end",
                         factor=event.bandwidth_factor, radio=event.radio)

        self.sim.call_at(event.at_ms, _start)
        self.sim.call_at(event.at_ms + event.duration_ms, _end)

    # -- bookkeeping ----------------------------------------------------------------

    def _record(self, kind: str, phase: str, **detail: object) -> None:
        self.log.append(
            InjectedFault(time_ms=self.sim.now, kind=kind, phase=phase,
                          detail=dict(detail))
        )
        self.sim.spans.mark("fault", f"{kind}.{phase}", **detail)

    def applied(self, kind: Optional[str] = None) -> List[InjectedFault]:
        """The faults actually fired so far, optionally filtered by kind."""
        if kind is None:
            return list(self.log)
        return [entry for entry in self.log if entry.kind == kind]
