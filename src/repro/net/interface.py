"""Wireless interface models: WiFi and Bluetooth.

The figures come straight from the paper (§V-B): 802.11n WiFi offers up to
450 Mbps link rate (150 Mbps on the evaluation router) at about 2 W when
transmitting flat out, while Bluetooth is an order of magnitude cheaper
(<0.1 W) and an order of magnitude slower (~21 Mbps).  Waking a disabled
WiFi radio takes at least 100 ms, and more than 500 ms when it must
re-associate with its access point — the latency that motivates predictive
switching.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.net.message import Message
from repro.sim.kernel import Event, Simulator
from repro.sim.resources import Gauge


class SharedMedium:
    """One wireless channel shared by several radios (CSMA-style).

    802.11 is half-duplex and shared: when two phones stream through the
    same access point their transmissions serialize on the air.  Radios
    attached to a medium acquire it for each transmission, so aggregate
    throughput is bounded by the channel, not by the sum of the radios.
    """

    def __init__(self, sim: Simulator, name: str = "medium"):
        self.sim = sim
        self.name = name
        self.airtime_ms = 0.0
        self.transmissions = 0
        self._held = False
        self._waiting: Deque[Tuple[Callable[..., Any], Tuple[Any, ...]]] = (
            deque()
        )

    def acquire(self, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` once the air is clear.

        Each grant, at once or when the holder releases, is a zero-time
        hop, so granted radios resume in queue order.
        """
        if self._held:
            self._waiting.append((fn, args))
        else:
            self._held = True
            self.sim.call_later(0.0, fn, *args)

    def release(self, tx_ms: float) -> None:
        self.airtime_ms += tx_ms
        self.transmissions += 1
        if self._waiting:
            fn, args = self._waiting.popleft()
            self.sim.call_later(0.0, fn, *args)
        else:
            self._held = False

    def utilization(self, elapsed_ms: float) -> float:
        if elapsed_ms <= 0:
            return 0.0
        return min(1.0, self.airtime_ms / elapsed_ms)


class RadioState(enum.Enum):
    OFF = "off"
    WAKING = "waking"
    IDLE = "idle"
    TX = "tx"


@dataclass(frozen=True)
class RadioSpec:
    """Static parameters of one radio technology."""

    name: str
    bandwidth_mbps: float
    tx_power_w: float          # while transmitting at full rate
    idle_power_w: float        # associated but not transmitting
    off_power_w: float = 0.0
    wakeup_ms: float = 0.0           # OFF -> usable, warm path
    reassociation_ms: float = 0.0    # OFF -> usable after a long sleep
    reassociation_after_ms: float = 5_000.0  # sleep longer than this => cold
    per_packet_header_bytes: int = 28

    def tx_time_ms(self, wire_bytes: int) -> float:
        if self.bandwidth_mbps <= 0:
            return float("inf")
        bits = wire_bytes * 8
        return bits / (self.bandwidth_mbps * 1000.0)  # Mbps == bits/ms / 1000


WIFI_80211N = RadioSpec(
    name="wifi",
    bandwidth_mbps=150.0,      # TP-Link WR802N used in §VII-A
    tx_power_w=2.0,
    idle_power_w=0.55,
    off_power_w=0.0,
    wakeup_ms=100.0,
    reassociation_ms=500.0,
    reassociation_after_ms=5_000.0,
)

BLUETOOTH_CLASSIC = RadioSpec(
    name="bluetooth",
    bandwidth_mbps=21.0,
    tx_power_w=0.09,
    idle_power_w=0.01,
    off_power_w=0.0,
    wakeup_ms=10.0,
    reassociation_ms=10.0,
    reassociation_after_ms=1e12,
)


class WirelessInterface:
    """A radio with an outbound FIFO, a power gauge and a wake/sleep FSM.

    ``send`` enqueues a message; the radio serializes messages at link
    bandwidth, one transmit timer each, and invokes the attached link's
    ``deliver``.  While the radio is OFF or WAKING, messages queue and
    their latency grows — the effect the predictive switcher exists to
    avoid.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: RadioSpec,
        name: str = "",
        medium: Optional["SharedMedium"] = None,
    ):
        self.sim = sim
        self.spec = spec
        self.name = name or spec.name
        self.medium = medium
        self.state = RadioState.IDLE
        self.power = Gauge(sim, spec.idle_power_w, name=f"{self.name}.power")
        #: ``(message, egress override)`` waiting behind the one on air
        self._txq: Deque[Tuple[Message, Any]] = deque()
        #: a message is on air, waiting for the radio or the medium, or
        #: about to start
        self._busy = False
        self.link = None  # set via attach_link
        self._usable = sim.event(name=f"{self.name}.usable")
        self._usable.trigger(None)
        sim.on_teardown(self._drop_waiters)
        self._off_since: Optional[float] = None
        self.bytes_sent = 0
        self.messages_sent = 0
        self.wake_count = 0
        self.tx_log: List[Tuple[float, int]] = []  # (time, wire_bytes)
        #: multiplicative bandwidth factors applied by fault injection
        #: (RF degradation: interference, distance, a microwave oven);
        #: each ``degrade`` is undone by one ``restore`` of the same factor.
        self._degradations: List[float] = []

    # -- link attachment ----------------------------------------------------

    def attach_link(self, link) -> None:
        self.link = link

    # -- fault injection ------------------------------------------------------

    def degrade(self, bandwidth_factor: float) -> None:
        """Scale effective bandwidth down by ``bandwidth_factor`` (0, 1]."""
        if not 0.0 < bandwidth_factor <= 1.0:
            raise ValueError(
                f"{self.name}: bandwidth factor {bandwidth_factor} "
                "outside (0, 1]"
            )
        self._degradations.append(bandwidth_factor)
        self.sim.spans.mark(
            "radio", "degrade",
            radio=self.name, factor=bandwidth_factor,
        )

    def restore(self, bandwidth_factor: float) -> None:
        self._degradations.remove(bandwidth_factor)
        self.sim.spans.mark(
            "radio", "restore",
            radio=self.name, factor=bandwidth_factor,
        )

    @property
    def bandwidth_scale(self) -> float:
        scale = 1.0
        for factor in self._degradations:
            scale *= factor
        return scale

    # -- power management -----------------------------------------------------

    @property
    def is_on(self) -> bool:
        return self.state not in (RadioState.OFF, RadioState.WAKING)

    def power_off(self) -> None:
        if self.state == RadioState.OFF:
            return
        self.state = RadioState.OFF
        self._off_since = self.sim.now
        self._usable = self.sim.event(name=f"{self.name}.usable")
        self._set_power(self.spec.off_power_w)
        self.sim.spans.mark("radio", "off", radio=self.name)

    def power_on(self) -> Event:
        """Begin waking the radio; returns the event that fires when usable.

        The warm wakeup path costs ``wakeup_ms``; if the radio slept past
        ``reassociation_after_ms`` it must re-associate and pays the longer
        ``reassociation_ms`` (§V-B preliminary measurements).
        """
        if self.state not in (RadioState.OFF,):
            return self._usable
        slept_ms = (
            self.sim.now - self._off_since if self._off_since is not None else 0.0
        )
        delay = (
            self.spec.reassociation_ms
            if slept_ms > self.spec.reassociation_after_ms
            else self.spec.wakeup_ms
        )
        self.state = RadioState.WAKING
        self.wake_count += 1
        self._set_power(self.spec.idle_power_w)  # radio draws power while waking
        usable = self._usable
        self.sim.spans.mark(
            "radio", "waking", radio=self.name, delay_ms=delay
        )

        # A zero-time start hop, then the wake delay.
        self.sim.call_later(
            0.0, self.sim.call_later, delay, self._woken, usable
        )
        return usable

    def _woken(self, usable: Event) -> None:
        if self.state == RadioState.WAKING:
            self.state = RadioState.IDLE
            self._set_power(self.spec.idle_power_w)
            if not usable.triggered:
                usable.trigger(None)
            self.sim.spans.mark("radio", "awake", radio=self.name)

    def _drop_waiters(self) -> None:
        """Cancel what waits for the radio to wake (held messages, route
        flips): those callbacks point back at their owners.  The event is
        replaced on each power cycle, so this reads it at teardown."""
        self._usable.cancel_waiters()

    # -- data path ---------------------------------------------------------------

    def send(self, message: Message, link=None) -> None:
        """Queue a message for transmission.

        ``link`` overrides the attached link for this message only (used by
        multicast fan-out, which is a different egress for the same radio).
        """
        message.metadata.setdefault("radio_enqueued_at", self.sim.now)
        if self._busy:
            self._txq.append((message, link))
        else:
            self._busy = True
            self.sim.soon(self._start, message, link)

    def energy_joules(self) -> float:
        return self.power.integral() / 1000.0

    # -- internals -------------------------------------------------------------------

    def _set_power(self, watts: float) -> None:
        self.power.set(watts)

    def _start(self, message: Message, link) -> None:
        # Hold the message until the radio is usable (models queueing
        # during wake), re-checking after each wake.
        if not self.is_on:
            self._usable.on_trigger(self._start, message, link)
            return
        wire = message.wire_bytes(self.spec.per_packet_header_bytes)
        tx_ms = self.spec.tx_time_ms(wire) / self.bandwidth_scale
        if self.medium is not None:
            # Contend for the shared channel (CSMA): wait for clear air.
            self.medium.acquire(self._transmit, message, link, wire, tx_ms)
        else:
            self._transmit(message, link, wire, tx_ms)

    def _transmit(
        self, message: Message, link, wire: int, tx_ms: float
    ) -> None:
        self.state = RadioState.TX
        self._set_power(self.spec.tx_power_w)
        self.sim.call_later(tx_ms, self._sent, message, link, wire, tx_ms)

    def _sent(self, message: Message, link, wire: int, tx_ms: float) -> None:
        if self.medium is not None:
            self.medium.release(tx_ms)
        self.state = RadioState.IDLE
        self._set_power(self.spec.idle_power_w)
        self.bytes_sent += wire
        self.messages_sent += 1
        self.tx_log.append((self.sim.now, wire))
        egress = link if link is not None else self.link
        if egress is not None:
            egress.deliver(message, via=self)
        if self._txq:
            self.sim.soon(self._start, *self._txq.popleft())
        else:
            self._busy = False
