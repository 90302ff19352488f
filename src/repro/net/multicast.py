"""UDP multicast for state replication (paper §VI-B).

State-altering commands must reach *every* service device.  Unicasting the
same bytes N times wastes the user device's airtime and energy; multicast
sends one transmission on the shared medium and the router fans it out.
:class:`MulticastGroup` models that: one radio transmission, one link
traversal per member, a single energy charge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.net.link import NetworkLink
from repro.net.message import Message
from repro.sim.kernel import Simulator


@dataclass
class _Member:
    name: str
    link: NetworkLink


class MulticastGroup:
    """A multicast destination backed by one sending radio."""

    def __init__(self, sim: Simulator, name: str = "mcast"):
        self.sim = sim
        self.name = name
        self._members: Dict[str, _Member] = {}
        self._radio_provider: Optional[Callable] = None
        self.messages_sent = 0
        self.unicast_equivalent_bytes = 0
        self.multicast_bytes = 0

    def bind_radio(self, radio_provider: Callable) -> None:
        self._radio_provider = radio_provider

    def join(self, member_name: str, link: NetworkLink) -> None:
        if member_name in self._members:
            raise ValueError(f"{member_name!r} already joined {self.name}")
        self._members[member_name] = _Member(member_name, link)

    def leave(self, member_name: str) -> None:
        self._members.pop(member_name, None)

    def send(self, message: Message) -> None:
        """One transmission; every member's link receives a copy.

        Member deliveries ride each member's own link latency; there is no
        per-member radio cost — that's the §VI-B bandwidth saving, and
        ``unicast_equivalent_bytes`` vs ``multicast_bytes`` quantifies it.
        """
        if self._radio_provider is None:
            raise RuntimeError(f"{self.name}: no radio bound")
        if not self._members:
            return
        radio = self._radio_provider()
        self.messages_sent += 1
        self.multicast_bytes += message.size_bytes
        self.unicast_equivalent_bytes += message.size_bytes * len(self._members)

        # The radio transmits once; on completion, fan out over member links.
        radio.send(message, link=_FanOut(list(self._members.values())))


class _FanOut:
    """The link a multicast transmission completes on: delivers one clone
    of the message over each member's own link, in join order."""

    __slots__ = ("members",)

    def __init__(self, members: List[_Member]):
        self.members = members

    def deliver(self, msg: Message, via=None) -> None:
        for member in self.members:
            clone = Message(
                size_bytes=msg.size_bytes,
                payload=msg.payload,
                kind=msg.kind,
                message_id=msg.message_id,
                created_at=msg.created_at,
                metadata={
                    k: v
                    for k, v in msg.metadata.items()
                    if not k.startswith("_")
                },
            )
            clone.metadata["mcast_member"] = member.name
            member.link.deliver(clone)
