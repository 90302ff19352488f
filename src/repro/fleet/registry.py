"""The fleet's device registry: membership, heartbeats, liveness.

Discovery (``repro.net.discovery``) answers *what exists on the LAN*;
the registry answers *what is alive right now and how busy it is*.  Each
registered device runs a heartbeat loop reporting its real queued
workload (the same ``w^j`` the Eq. 4 scheduler consumes) on a fixed
period.  A periodic liveness check watches the report times: a device silent for
``HEARTBEAT_TIMEOUT_MS`` is declared **down** and the registry fires its
``on_lost`` hook — there is no failure oracle; crashes are observed the
only way a distributed system can observe them, by missed heartbeats.
A device that starts answering again is marked **up** and ``on_join``
fires, letting the controller drain its admission queue onto the
recovered capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.devices.profiles import DeviceSpec
from repro.sim.kernel import Simulator

#: how often a registered device reports its queued workload
HEARTBEAT_INTERVAL_MS = 250.0
#: a device silent for this long is declared lost (3 missed beats)
HEARTBEAT_TIMEOUT_MS = 750.0

#: answers (queued_workload_mp, active_sessions) — optionally extended
#: to (queued_workload_mp, active_sessions, replay_generation) by
#: replay-enabled fleets and further to (..., titles) by planner-enabled
#: fleets advertising which titles the device currently serves — or None
#: when the device is silent (crashed, unplugged, off the network)
HeartbeatProbe = Callable[[], Optional[Tuple]]


def _silent() -> None:
    """The heartbeat probe of a torn-down run's devices."""
    return None


@dataclass
class Heartbeat:
    """One liveness report from a service device."""

    time_ms: float
    queued_workload_mp: float
    active_sessions: int
    #: the replay-store generation this device's serving view reflects
    #: (0 when the fleet runs without the replay hub)
    replay_generation: int = 0
    #: titles of the sessions this device is serving right now, one entry
    #: per session — the planner's multicast candidate reads co-location
    #: (two viewers of one title on one LAN segment) from these
    titles: Tuple[str, ...] = ()


@dataclass
class RegisteredDevice:
    """Registry-side record of one pool member."""

    spec: DeviceSpec
    rtt_ms: float
    probe: HeartbeatProbe
    state: str = "up"                      # "up" | "down"
    last_heartbeat: Optional[Heartbeat] = None
    joins: int = 0
    losses: int = 0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def queued_workload_mp(self) -> float:
        if self.last_heartbeat is None:
            return 0.0
        return self.last_heartbeat.queued_workload_mp


class DeviceRegistry:
    """Tracks pool membership and liveness through heartbeats."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.devices: Dict[str, RegisteredDevice] = {}
        #: fired with the RegisteredDevice on membership transitions
        self.on_lost: Optional[Callable[[RegisteredDevice], None]] = None
        self.on_join: Optional[Callable[[RegisteredDevice], None]] = None
        sim.every(HEARTBEAT_INTERVAL_MS, self._check_liveness)
        sim.on_teardown(self._close)

    # -- membership ----------------------------------------------------------

    def register(
        self, spec: DeviceSpec, rtt_ms: float, probe: HeartbeatProbe
    ) -> RegisteredDevice:
        if spec.name in self.devices:
            return self.devices[spec.name]
        dev = RegisteredDevice(spec=spec, rtt_ms=rtt_ms, probe=probe)
        dev.joins = 1
        # Seed the record so a device is not declared dead before its
        # first scheduled beat.
        dev.last_heartbeat = Heartbeat(self.sim.now, 0.0, 0)
        self.devices[spec.name] = dev
        self.sim.every(HEARTBEAT_INTERVAL_MS, self._heartbeat, dev)
        self.sim.spans.mark("fleet", "device_registered", device=spec.name)
        if self.on_join is not None:
            self.on_join(dev)
        return dev

    def up_devices(self) -> List[RegisteredDevice]:
        return [d for d in self.devices.values() if d.state == "up"]

    def colocation_groups(self) -> Dict[str, int]:
        """Viewers per title across the live pool, from heartbeat titles.

        A count of two or more means the planner's multicast candidate is
        viable: one rendered stream can serve every co-located viewer of
        that title.  Deterministic: sorted by title.
        """
        counts: Dict[str, int] = {}
        for dev in self.up_devices():
            hb = dev.last_heartbeat
            if hb is None:
                continue
            for title in hb.titles:
                counts[title] = counts.get(title, 0) + 1
        return dict(sorted(counts.items()))

    # -- liveness ------------------------------------------------------------

    def _heartbeat(self, dev: RegisteredDevice) -> None:
        answer = dev.probe()
        if answer is None:
            return  # silence; the liveness check draws the conclusion
        workload, sessions = answer[0], answer[1]
        generation = answer[2] if len(answer) > 2 else 0
        titles = tuple(answer[3]) if len(answer) > 3 else ()
        dev.last_heartbeat = Heartbeat(
            self.sim.now, workload, sessions, generation, titles
        )
        if dev.state == "down":
            dev.state = "up"
            dev.joins += 1
            self.sim.spans.mark("fleet", "device_up", device=dev.name)
            if self.on_join is not None:
                self.on_join(dev)

    def _check_liveness(self) -> None:
        for dev in self.devices.values():
            if dev.state != "up" or dev.last_heartbeat is None:
                continue
            silent_ms = self.sim.now - dev.last_heartbeat.time_ms
            if silent_ms >= HEARTBEAT_TIMEOUT_MS:
                dev.state = "down"
                dev.losses += 1
                self.sim.spans.mark(
                    "fleet", "device_down", device=dev.name
                )
                if self.on_lost is not None:
                    self.on_lost(dev)

    def _close(self) -> None:
        """Teardown breaker: the hooks and the heartbeat probes point
        back at the controller and its nodes."""
        self.on_lost = self.on_join = None
        for dev in self.devices.values():
            dev.probe = _silent
