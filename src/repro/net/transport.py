"""Reliable transports over the lossy link substrate.

Paper §IV-B: graphics commands must arrive reliably and in order, but TCP's
retransmission machinery carries an inherent delayed-ACK floor of roughly
40 ms, so GBooster implements a lightweight application-layer reliability
mechanism over UDP (after UDT [19]).

:class:`ReliableUdpTransport` models that mechanism: per-message sequence
numbers, in-order delivery at the receiver, and timer-based retransmission
of dropped messages.  :class:`TcpTransport` is the comparison baseline: the
same reliability, plus the protocol's inherent ACK-delay latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.net.interface import WirelessInterface
from repro.net.link import NetworkLink
from repro.net.message import (
    Message,
    RUDP_HEADER_BYTES,
    TCP_IP_HEADER_BYTES,
    UDP_IP_HEADER_BYTES,
)
from repro.sim.kernel import Simulator, TimerHandle


@dataclass
class TransportStats:
    messages_sent: int = 0
    messages_delivered: int = 0
    retransmissions: int = 0
    bytes_offered: int = 0
    bytes_delivered: int = 0
    delivery_latencies_ms: List[float] = field(default_factory=list)

    def mean_latency_ms(self) -> float:
        if not self.delivery_latencies_ms:
            return 0.0
        return sum(self.delivery_latencies_ms) / len(self.delivery_latencies_ms)


class Transport:
    """Base class: sequencing + in-order delivery + retransmission.

    The sender path is ``send -> radio queue -> link -> receiver reorder
    buffer -> deliver callback``.  A retransmission timer watches each
    in-flight message; if no delivery confirmation arrives within the RTO
    the message is re-sent through the same radio.  (ACK traffic itself is
    modelled as latency — ACK bytes are negligible against frame data.)
    """

    #: extra protocol latency added to every delivery (TCP's delayed ACK)
    protocol_delay_ms: float = 0.0
    per_packet_header: int = UDP_IP_HEADER_BYTES

    def __init__(
        self,
        sim: Simulator,
        name: str = "transport",
        rto_ms: float = 30.0,
        max_retries: int = 10,
    ):
        self.sim = sim
        self.name = name
        self.rto_ms = rto_ms
        self.max_retries = max_retries
        self.stats = TransportStats()
        self.on_deliver: Optional[Callable[[Message], None]] = None
        #: called with each fresh arrival at the receiving end: the moment
        #: its ACK goes back to the sender
        self.on_ack: Optional[Callable[[Message], None]] = None
        sim.on_teardown(self._unwire)
        self._radio_provider: Optional[Callable[[], WirelessInterface]] = None
        self._link_for_radio: Dict[str, NetworkLink] = {}
        self._next_seq = 0
        self._expected_seq = 0
        self._reorder: Dict[int, Message] = {}
        #: sequence numbers sent but not yet received; unlike the old
        #: ever-growing acked-history dict this stays bounded by the loss
        #: window — delivered sequence numbers are pruned on arrival.
        self._unacked: set = set()
        #: pending retransmission-timer callback per unacked sequence
        #: number, cancelled the moment the ACK arrives so no RTO timer
        #: outlives delivery (they used to keep ``Simulator.run()`` alive
        #: for the whole exponential-backoff window).
        self._rto_timers: Dict[int, TimerHandle] = {}

    # -- wiring -----------------------------------------------------------------

    def _unwire(self) -> None:
        """Teardown breaker: the delivery callbacks point at the owners."""
        self.on_deliver = self.on_ack = None

    def bind(
        self,
        radio_provider: Callable[[], WirelessInterface],
        links: Dict[str, NetworkLink],
        on_deliver: Callable[[Message], None],
    ) -> None:
        """Connect the transport to its radios and per-radio links.

        ``radio_provider`` is consulted *per message*, so an interface
        switch mid-stream reroutes subsequent traffic — exactly the
        behaviour the switching controller relies on (§V-B: "configures the
        default route to direct the traffic through the interface").
        """
        self._radio_provider = radio_provider
        self._link_for_radio = dict(links)
        for link in links.values():
            link.set_receiver(self._on_link_receive)
        self.on_deliver = on_deliver

    # -- sending ---------------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Send reliably; ``on_deliver`` sees it at in-order delivery."""
        if self._radio_provider is None:
            raise RuntimeError(f"{self.name}: transport not bound")
        seq = self._next_seq
        self._next_seq += 1
        message.metadata["seq"] = seq
        message.metadata["transport_send_at"] = self.sim.now
        # Assignment, not accumulation: the same Message object may be
        # re-sent (failover re-dispatch) without compounding the header.
        message.transport_overhead_bytes = self._header_overhead()
        self._unacked.add(seq)
        self.stats.messages_sent += 1
        self.stats.bytes_offered += message.framed_bytes
        self._transmit(message, attempt=0)

    def _header_overhead(self) -> int:
        return RUDP_HEADER_BYTES

    def _transmit(self, message: Message, attempt: int) -> None:
        radio = self._radio_provider()
        # Several transports share each radio (per-node uplinks, the
        # downlink), so the egress link rides on the message rather than on
        # the radio: look it up by the radio's technology name, falling back
        # to the sole bound link.
        link = self._link_for_radio.get(radio.spec.name)
        if link is None and len(self._link_for_radio) == 1:
            link = next(iter(self._link_for_radio.values()))
        radio.send(message, link=link)
        seq = message.metadata["seq"]
        self._rto_timers[seq] = self.sim.call_later(
            self.rto_ms * (2 ** min(attempt, 6)),
            self._on_rto, message, attempt,
        )

    def _on_rto(self, message: Message, attempt: int) -> None:
        """The retransmission timeout for ``message``'s ``attempt`` expired."""
        seq = message.metadata["seq"]
        if seq not in self._unacked:
            self._rto_timers.pop(seq, None)
            return
        if attempt + 1 > self.max_retries:
            self.sim.spans.mark(
                "transport", "give_up", transport=self.name, seq=seq,
            )
            self.sim.metrics.counter("transport.give_ups").inc()
            if self.sim.telemetry is not None:
                self.sim.telemetry.observe(
                    "transport.give_ups", 1.0, agg="count",
                    transport=self.name,
                )
            self._rto_timers.pop(seq, None)
            return
        self.stats.retransmissions += 1
        trace = None
        request = message.metadata.get("request")
        if request is not None:
            trace = request.metadata.get("trace")
        trace_id = trace.trace_id if trace is not None else None
        self.sim.metrics.counter("transport.retransmissions").inc()
        self.sim.metrics.counter(
            "transport.retransmissions", transport=self.name
        ).inc()
        if self.sim.telemetry is not None:
            self.sim.telemetry.observe(
                "transport.retransmissions", 1.0, agg="count",
                trace_id=trace_id,
                transport=self.name,
            )
        self.sim.spans.mark(
            "transport", "retransmit",
            transport=self.name, seq=seq, attempt=attempt + 1,
            **({"trace_id": trace_id} if trace_id else {}),
        )
        # The retransmission is the same wire message going out again, so
        # it keeps the original's id — trace records of repeated drops
        # all point at one message.
        clone = Message(
            size_bytes=message.size_bytes,
            payload=message.payload,
            kind=message.kind,
            message_id=message.message_id,
            created_at=message.created_at,
            metadata=dict(message.metadata),
            transport_overhead_bytes=message.transport_overhead_bytes,
        )
        self._transmit(clone, attempt=attempt + 1)

    # -- receiving -------------------------------------------------------------------------

    def _on_link_receive(self, message: Message) -> None:
        seq = message.metadata.get("seq")
        if seq is None or seq < self._expected_seq or seq in self._reorder:
            return  # duplicate from a spurious retransmission
        self._unacked.discard(seq)
        # The ACK cancels the retransmission timer immediately — no RTO
        # callback survives past delivery to inflate queue lifetime.
        timer = self._rto_timers.pop(seq, None)
        if timer is not None:
            timer.cancel()
        if self.on_ack is not None:
            self.on_ack(message)
        self._reorder[seq] = message
        if self.protocol_delay_ms > 0:
            self.sim.call_later(self.protocol_delay_ms, self._flush_in_order)
        else:
            self._flush_in_order()

    def _flush_in_order(self) -> None:
        while self._expected_seq in self._reorder:
            message = self._reorder.pop(self._expected_seq)
            self._expected_seq += 1
            self.stats.messages_delivered += 1
            self.stats.bytes_delivered += message.framed_bytes
            latency = self.sim.now - message.metadata["transport_send_at"]
            self.stats.delivery_latencies_ms.append(latency)
            if self.sim.telemetry is not None:
                self.sim.telemetry.observe(
                    "transport.delivery_ms", latency, transport=self.name,
                )
            self._record_delivery_span(message)
            if self.on_deliver is not None:
                self.on_deliver(message)

    def _record_delivery_span(self, message: Message) -> None:
        """One span per in-order delivery: uplink messages are the frame's
        "transmit" stage, returning encoded frames are its "return" stage."""
        request = message.metadata.get("request")
        frame_id = getattr(request, "frame_id", None)
        parent = None
        depth = 0
        trace = None
        if request is not None:
            root = request.metadata.get("frame_span")
            if root is not None:
                parent = root.qualified_name
                depth = root.depth + 1
            trace = request.metadata.get("trace")
        stage = "return" if message.kind == "frame" else "transmit"
        extra = {"trace_id": trace.trace_id} if trace is not None else {}
        self.sim.spans.add(
            "net",
            stage,
            message.metadata["transport_send_at"],
            self.sim.now,
            track=self.name,
            frame_id=frame_id,
            parent=parent,
            depth=depth,
            bytes=message.framed_bytes,
            kind=message.kind,
            **extra,
        )

    # -- introspection -------------------------------------------------------------------------

    def in_flight(self) -> int:
        return len(self._unacked)

    def delivered(self, message: Message) -> bool:
        """Whether ``message``, last sent through this transport, has been
        delivered in order; until then it, or one sent before it, is still
        being retransmitted."""
        return message.metadata.get("seq", self._next_seq) < self._expected_seq

    def reorder_held(self) -> int:
        """Messages received but parked awaiting an earlier sequence number."""
        return len(self._reorder)


class ReliableUdpTransport(Transport):
    """GBooster's transport: UDP framing, app-layer ARQ, no ACK-delay floor."""

    protocol_delay_ms = 0.0
    per_packet_header = UDP_IP_HEADER_BYTES


class TcpTransport(Transport):
    """Baseline: reliable and ordered, but with TCP's inherent delay.

    The paper cites ~40 ms as the typical delayed-ACK-induced latency in
    general settings [18]; we charge it on every delivery.
    """

    protocol_delay_ms = 40.0
    per_packet_header = TCP_IP_HEADER_BYTES

    def _header_overhead(self) -> int:
        return 0  # header accounted per packet, no app-layer ARQ header
