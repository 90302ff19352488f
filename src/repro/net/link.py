"""Point-to-point links: propagation delay, jitter and loss.

A :class:`NetworkLink` joins a sending radio to a receiving endpoint.  The
radio already accounted serialization time and energy; the link adds
propagation latency (LAN ≈ 1 ms, WAN ≈ 60–80 ms one way for the cloud
baseline) and drops messages with a configurable probability, which the
reliable transports recover from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.net.message import Message
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStream


@dataclass(frozen=True)
class LinkSpec:
    """Static parameters of one direction of a link."""

    name: str
    latency_ms: float = 1.0
    jitter_ms: float = 0.2
    loss_probability: float = 0.0

    def validate(self) -> None:
        if self.latency_ms < 0 or self.jitter_ms < 0:
            raise ValueError(f"{self.name}: negative latency/jitter")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError(
                f"{self.name}: loss probability {self.loss_probability} "
                "outside [0, 1)"
            )


LAN_WIFI = LinkSpec(name="lan-wifi", latency_ms=1.5, jitter_ms=0.4,
                    loss_probability=0.002)
LAN_BLUETOOTH = LinkSpec(name="lan-bt", latency_ms=4.0, jitter_ms=1.0,
                         loss_probability=0.004)
WAN_CLOUD = LinkSpec(name="wan", latency_ms=65.0, jitter_ms=12.0,
                     loss_probability=0.005)


class NetworkLink:
    """One direction of a link; delivers messages to a receiver callback."""

    def __init__(
        self,
        sim: Simulator,
        spec: LinkSpec,
        receiver: Optional[Callable[[Message], None]] = None,
        rng: Optional[RandomStream] = None,
    ):
        spec.validate()
        self.sim = sim
        self.spec = spec
        self.receiver = receiver
        sim.on_teardown(setattr, self, "receiver", None)
        self.rng = rng or sim.stream(f"link.{spec.name}")
        self.delivered = 0
        self.dropped = 0
        self.delivery_log: List[Tuple[float, int]] = []
        #: transient loss factors stacked on top of the spec's base loss by
        #: fault injection (a 1.0 entry is a hard outage).  Windows may
        #: overlap; each ``add_impairment`` is undone by one
        #: ``remove_impairment`` with the same probability.
        self._impairments: List[float] = []

    def set_receiver(self, receiver: Callable[[Message], None]) -> None:
        self.receiver = receiver

    # -- fault injection --------------------------------------------------------

    def add_impairment(self, loss_probability: float) -> None:
        """Layer a transient loss source onto the link (fault injection)."""
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError(
                f"{self.spec.name}: impairment {loss_probability} "
                "outside [0, 1]"
            )
        self._impairments.append(loss_probability)

    def remove_impairment(self, loss_probability: float) -> None:
        self._impairments.remove(loss_probability)

    @property
    def effective_loss(self) -> float:
        """Base loss composed with every active impairment window."""
        pass_probability = 1.0 - self.spec.loss_probability
        for loss in self._impairments:
            pass_probability *= 1.0 - loss
        return 1.0 - pass_probability

    def deliver(self, message: Message, via=None) -> None:
        """Accept a message from a radio and schedule its arrival."""
        if self.rng.bernoulli(self.effective_loss):
            self.dropped += 1
            self.sim.spans.mark(
                "link", "drop",
                link=self.spec.name, message_id=message.message_id,
            )
            return
        delay = self.spec.latency_ms
        if self.spec.jitter_ms > 0:
            delay += abs(self.rng.normal(0.0, self.spec.jitter_ms))
        self.sim.call_later(delay, self._arrive, message)

    def _arrive(self, message: Message) -> None:
        self.delivered += 1
        self.delivery_log.append((self.sim.now, message.size_bytes))
        if self.receiver is not None:
            self.receiver(message)
