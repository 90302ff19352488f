"""Service-device discovery on the local network.

Before GBooster can offload it must learn which multimedia devices are
present (Fig 2's implicit first step; §VIII discusses the no-device case).
The discovery protocol modelled here is the mDNS/SSDP shape used by real
smart-TV ecosystems:

1. the user device multicasts a probe on the LAN;
2. every GBooster-capable responder answers after a small random backoff
   (collision avoidance), advertising its capability vector (GPU fillrate,
   CPU class, current load);
3. the prober collects answers until every responder has been accounted
   for — receive_answer or lost — or until a deadline, whichever comes first,
   then ranks candidates.

Discovery is how the adaptive session runner (``repro.core.adaptive``)
decides between neighbourhood offloading and the cloud fallback, and how
the fleet control plane (``repro.fleet``) populates its device registry.
By default a responder advertises a small placeholder load; pass
``load_probe`` to have each advertisement carry the responder's *actual*
queued workload at answer time (the fleet registry wires this to its
service daemons).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.devices.profiles import DeviceSpec
from repro.sim.kernel import Event, Simulator
from repro.sim.random import RandomStream

PROBE_BYTES = 96          # the multicast M-SEARCH-style probe
ADVERT_BYTES = 240        # a capability advertisement

#: answers a responder's current load in [0, 1] when discovery asks
LoadProbe = Callable[[DeviceSpec], float]


@dataclass(frozen=True)
class ServiceAdvertisement:
    """What a responder announces about itself."""

    device: DeviceSpec
    responded_at_ms: float
    rtt_ms: float
    current_load: float = 0.0

    @property
    def gpu_fillrate_gpixels(self) -> float:
        return self.device.gpu.fillrate_gpixels


@dataclass
class DiscoveryResult:
    advertisements: List[ServiceAdvertisement] = field(default_factory=list)
    probe_sent_at_ms: float = 0.0
    deadline_ms: float = 0.0
    #: when the round actually finished; earlier than the deadline when
    #: every responder receive_answer (or was lost) before the timeout.
    completed_at_ms: Optional[float] = None

    @property
    def found_any(self) -> bool:
        return bool(self.advertisements)

    @property
    def completed_early(self) -> bool:
        return (
            self.completed_at_ms is not None
            and self.completed_at_ms < self.deadline_ms
        )

    def ranked(self) -> List[ServiceAdvertisement]:
        """Best offload candidates first: raw capability over load + RTT."""
        return sorted(
            self.advertisements,
            key=lambda ad: (
                -(ad.gpu_fillrate_gpixels * (1.0 - ad.current_load)),
                ad.rtt_ms,
                ad.device.name,
            ),
        )


class DiscoveryService:
    """Runs one probe round over a simulated LAN."""

    def __init__(
        self,
        sim: Simulator,
        responders: Sequence[DeviceSpec],
        lan_latency_ms: float = 1.5,
        response_backoff_ms: float = 40.0,
        loss_probability: float = 0.01,
        rng: Optional[RandomStream] = None,
        load_probe: Optional[LoadProbe] = None,
    ):
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(f"bad loss probability {loss_probability}")
        self.sim = sim
        self.responders = list(responders)
        self.lan_latency_ms = lan_latency_ms
        self.response_backoff_ms = response_backoff_ms
        self.loss_probability = loss_probability
        self.rng = rng or sim.stream("discovery")
        self.load_probe = load_probe

    def _advertised_load(self, spec: DeviceSpec) -> float:
        if self.load_probe is not None:
            return max(0.0, min(1.0, float(self.load_probe(spec))))
        # No probe wired up: a freshly discovered box reports the light
        # background load of an idle living-room device.
        return self.rng.uniform(0.0, 0.2)

    def probe(self, timeout_ms: float = 500.0) -> Event:
        """Multicast a probe; the returned event carries a DiscoveryResult.

        The round ends at ``timeout_ms``, or earlier once every responder
        has been accounted for — an answer recorded, or its probe/answer
        lost on the LAN.  (A real prober cannot see losses, but it *can*
        stop as soon as the expected population has receive_answer; the early
        exit on losses keeps the simulation from charging dead air to
        scenarios the prober would re-probe anyway.)
        """
        if timeout_ms <= 0:
            raise ValueError(f"timeout must be positive, got {timeout_ms}")
        sim = self.sim
        result = DiscoveryResult(
            probe_sent_at_ms=sim.now,
            deadline_ms=sim.now + timeout_ms,
        )
        done = sim.event(name="discovery.done")
        remaining = [len(self.responders)]

        def finish() -> None:
            if not done.triggered:
                result.completed_at_ms = sim.now
                done.trigger(result)

        def account() -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                finish()

        # Each responder is a chain of callbacks, started after a
        # zero-time hop: probe out, backoff, answer back.
        def send_probe(spec: DeviceSpec) -> None:
            # Probe propagation, possibly lost on the way out.
            if self.rng.bernoulli(self.loss_probability):
                account()
                return
            sim.call_later(self.lan_latency_ms, back_off, spec)

        def back_off(spec: DeviceSpec) -> None:
            # Random backoff desynchronizes the answers.
            backoff_ms = self.rng.uniform(1.0, self.response_backoff_ms)
            sim.call_later(backoff_ms, send_answer, spec)

        def send_answer(spec: DeviceSpec) -> None:
            if self.rng.bernoulli(self.loss_probability):
                account()
                return  # answer lost
            sim.call_later(self.lan_latency_ms, receive_answer, spec)

        def receive_answer(spec: DeviceSpec) -> None:
            if sim.now <= result.deadline_ms:
                result.advertisements.append(
                    ServiceAdvertisement(
                        device=spec,
                        responded_at_ms=sim.now,
                        rtt_ms=sim.now - result.probe_sent_at_ms,
                        current_load=self._advertised_load(spec),
                    )
                )
            account()

        for spec in self.responders:
            sim.call_later(0.0, send_probe, spec)

        if not self.responders:
            # An empty LAN has nothing to wait for.
            finish()
        else:
            # The deadline, after a zero-time start hop.
            sim.call_later(0.0, sim.call_later, timeout_ms, finish)
        return done
