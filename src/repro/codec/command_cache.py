"""LRU caching of graphics commands (paper §V-A).

Consecutive frames issue near-identical command sequences; GBooster caches
"the latest and frequent commands on the user device and the service
device" so repeats travel as short references instead of full payloads.

The sender and receiver caches must stay in lockstep or a reference would
dangle.  :class:`CachePair` couples two :class:`LRUCommandCache` instances
and runs the identical update rule on both sides, asserting agreement — the
invariant the property tests hammer on.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

#: Marker that opens a cache reference on the wire.  Every serialized
#: command opens with the serializer's ``MAGIC`` ("GB") instead, so a
#: reference can never be mistaken for a command.
REFERENCE_MARKER = b"\xCA\xFE"
# Wire size of a cache reference: 2-byte marker + 8-byte key digest.
REFERENCE_BYTES = 10


class CacheEntry(NamedTuple):
    """What each side caches per key."""

    #: the command's full serialization
    wire: bytes
    #: what travels in its place once both sides hold the entry
    reference: bytes


def key_digest(key: Tuple) -> bytes:
    """Stable 8-byte digest of a cache key for the wire reference.

    ``hash()`` is randomized per process (PYTHONHASHSEED), which made the
    reference bytes — and every downstream compressed size — differ
    between runs of the same seed.
    """
    return hashlib.blake2b(repr(key).encode(), digest_size=8).digest()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: re-inserts of an already-cached key (recency/bytes refresh, not a
    #: miss) — policies reading hits/misses alone would misread churn
    refreshes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class LRUCommandCache:
    """One side's cache: command key -> cached wire bytes and reference."""

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, CacheEntry]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._entries

    def lookup(self, key: Tuple) -> Optional[CacheEntry]:
        """Returns the cached entry and refreshes recency, or None."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def insert(self, key: Tuple, wire: bytes, reference: bytes = b"") -> None:
        if key in self._entries:
            # Refresh both recency AND the stored bytes: a re-inserted key
            # may carry different wire bytes (e.g. after the sender evicted
            # and re-encoded), and serving stale bytes on a later hit would
            # desync the receiver's replay.
            self._entries[key] = CacheEntry(wire, reference)
            self._entries.move_to_end(key)
            self.stats.refreshes += 1
            return
        self._entries[key] = CacheEntry(wire, reference)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def items(self) -> Tuple[Tuple[Tuple, bytes], ...]:
        """Oldest-to-newest ``(key, wire)`` pairs (for consistency checks)."""
        return tuple((key, entry.wire) for key, entry in self._entries.items())

    def keys_in_order(self) -> Tuple[Tuple, ...]:
        """Oldest-to-newest key order (exposed for consistency checks)."""
        return tuple(self._entries.keys())

    def byte_size(self) -> int:
        """Total bytes of cached wire payloads (admission accounting)."""
        return sum(len(entry.wire) for entry in self._entries.values())


class CachePair:
    """Sender + receiver caches updated by one deterministic rule.

    ``encode`` decides, for one command key, whether the command travels
    as a reference (hit on the sender; the receiver must hit too) or in
    full (miss; the encoder runs and both sides insert).  The receiver
    half is driven in the same call, so the two sides cannot drift; a
    receiver miss on a sender hit raises.
    """

    def __init__(self, capacity: int = 4096):
        self.sender = LRUCommandCache(capacity)
        self.receiver = LRUCommandCache(capacity)

    def encode(
        self, key: Tuple, encoder: Callable[[], bytes]
    ) -> Tuple[bytes, bytes, bool]:
        """Returns ``(wire, sent, hit)`` for the command keyed ``key``.

        ``wire`` is the command's full serialization — the cached bytes on
        a hit, ``encoder()`` on a miss, the only case that calls it.
        ``sent`` is what travels: the entry's reference on a hit, ``wire``
        on a miss.
        """
        entry = self.sender.lookup(key)
        if entry is not None:
            # Receiver must refresh recency identically.
            if self.receiver.lookup(key) is None:
                raise RuntimeError(
                    "cache desync: sender hit but receiver miss for "
                    f"{key[0]}"
                )
            return entry.wire, entry.reference, True
        wire = encoder()
        reference = REFERENCE_MARKER + key_digest(key)
        self.sender.insert(key, wire, reference)
        self.receiver.insert(key, wire, reference)
        return wire, wire, False

    def verify_consistent(self) -> bool:
        return self.sender.keys_in_order() == self.receiver.keys_in_order()

    @property
    def hit_rate(self) -> float:
        return self.sender.stats.hit_rate
