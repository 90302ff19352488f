"""Content-addressed storage for recorded command intervals.

One :class:`ReplayStore` holds the recorded intervals of a single title,
keyed by the interval's skeleton digest (the rolling content digest of
:mod:`repro.gles.intervals`).  A :class:`ReplayHub` groups per-title
stores and is the unit the fleet controller distributes: every service
device and client session of a title shares the title's store, so a
second session hits warm on *any* device — the fleet-wide dedup the
ROADMAP names as the dominant win at scale.

Entries move through two states:

* ``RECORDED`` — deposited by one session's full-pipeline run; never
  served back to its recorder (no second execution to verify against).
* ``VERIFIED`` — a different session re-encountered the interval, was
  delta-served, and the reconstruction's digest matched its live stream
  (the ``run_replay_pair``-style promotion check in
  :mod:`repro.replay.session`).

Divergence at any point *demotes* the entry — it is dropped outright so
a later session re-records a clean copy, and the generation counter
bumps so heartbeat-advertised cache state reflects the change.

Eviction is LRU under a byte budget with refcounts: sessions retain the
entries they are actively serving from, and a retained entry is never
evicted (a hit already in flight must find its baseline on the server).
If the budget cannot be met from unreferenced entries, admission of the
new interval is rejected instead.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.codec.delta import encode_values
from repro.gles.intervals import IntervalSplit

RECORDED = "recorded"
VERIFIED = "verified"

#: dynamics variants kept per entry.  The recorder deposits the dynamics
#: of every occurrence it executes (first one at record time, later ones
#: on own-recording bypass frames), so a serving session can diff its
#: live dynamics against the closest recorded variant instead of a
#: single stale baseline — for stable content the best patch is empty.
MAX_VARIANTS = 16
#: byte budget of one title's store in a :class:`ReplayHub` (LRU +
#: refcount eviction)
REPLAY_STORE_BYTES = 4 << 20


@dataclass
class ReplayStoreStats:
    records: int = 0
    rejected: int = 0          # admissions refused by the byte budget
    hits: int = 0              # delta-serves (verify attempts included)
    promotions: int = 0
    demotions: int = 0
    evictions: int = 0
    variants: int = 0          # extra dynamics variants deposited

    def as_dict(self) -> Dict[str, int]:
        return {
            "records": self.records,
            "rejected": self.rejected,
            "hits": self.hits,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "evictions": self.evictions,
            "variants": self.variants,
        }


@dataclass
class RecordedInterval:
    """One recorded interval: skeleton + baseline dynamics + accounting."""

    digest: str
    title: str
    skeleton: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    slot_commands: Tuple[int, ...]
    #: recorded dynamics variants, oldest first; a serve names the one it
    #: diffed against by index (``variants[0]`` is the record-time state)
    variants: List[Tuple[Any, ...]]
    #: full-pipeline uplink bytes observed when this interval was
    #: recorded — what a hit avoids, and what a fallback re-pays
    wire_bytes: int
    raw_bytes: int
    #: nominal server-side command count of the full interval
    nominal_commands: int
    byte_size: int
    state: str = RECORDED
    recorded_by: str = ""
    hits: int = 0
    refcount: int = 0

    @property
    def baseline(self) -> Tuple[Any, ...]:
        """The record-time dynamics (variant 0)."""
        return self.variants[0]


class ReplayStore:
    """Per-title content-addressed interval cache (LRU + refcounts)."""

    def __init__(self, title: str, capacity_bytes: int = 4 << 20):
        if capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be positive, got {capacity_bytes}"
            )
        self.title = title
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[str, RecordedInterval]" = OrderedDict()
        self.bytes_stored = 0
        self.stats = ReplayStoreStats()
        #: bumps on every record / promotion / demotion / eviction, so a
        #: heartbeat-advertised generation tells the controller whether a
        #: device's view of the title cache is current
        self.generation = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    def get(self, digest: str) -> Optional[RecordedInterval]:
        return self._entries.get(digest)

    def entries(self) -> List[RecordedInterval]:
        """Oldest-to-newest (exposed for reports and tests)."""
        return list(self._entries.values())

    # -- recording / state transitions ---------------------------------------

    @staticmethod
    def entry_byte_size(split: IntervalSplit) -> int:
        """Stored footprint of one interval (admission accounting)."""
        return len(repr(split.skeleton)) + len(encode_values(split.dynamics))

    def record(
        self,
        digest: str,
        split: IntervalSplit,
        *,
        wire_bytes: int,
        raw_bytes: int,
        nominal_commands: int,
        recorded_by: str = "",
    ) -> Optional[RecordedInterval]:
        """Admit a freshly recorded interval; returns None when the byte
        budget cannot be met from evictable (unreferenced) entries."""
        if digest in self._entries:
            # Lost race between two recording sessions: first copy wins.
            return self._entries[digest]
        size = self.entry_byte_size(split)
        if not self._make_room(size):
            self.stats.rejected += 1
            return None
        entry = RecordedInterval(
            digest=digest,
            title=self.title,
            skeleton=split.skeleton,
            slot_commands=split.slot_commands,
            variants=[split.dynamics],
            wire_bytes=wire_bytes,
            raw_bytes=raw_bytes,
            nominal_commands=nominal_commands,
            byte_size=size,
            recorded_by=recorded_by,
        )
        self._entries[digest] = entry
        self.bytes_stored += size
        self.stats.records += 1
        self.generation += 1
        return entry

    def add_variant(self, digest: str, dynamics: Tuple[Any, ...]) -> bool:
        """Deposit one more recorded dynamics variant for an entry.

        Called by the recorder when it re-executes its own recording (a
        bypass frame): the occurrence's dynamics become one more diff
        target for later serving sessions.  Refused when the entry is
        gone, the variant is a duplicate, the per-entry cap is hit, or
        the byte budget cannot absorb it.
        """
        entry = self._entries.get(digest)
        if entry is None or len(entry.variants) >= MAX_VARIANTS:
            return False
        if dynamics in entry.variants:
            return False
        extra = len(encode_values(dynamics))
        # Pin the entry so making room cannot evict the very entry the
        # variant extends.
        entry.refcount += 1
        try:
            if not self._make_room(extra):
                return False
        finally:
            entry.refcount -= 1
        entry.variants.append(dynamics)
        entry.byte_size += extra
        self.bytes_stored += extra
        self.stats.variants += 1
        self.generation += 1
        return True

    def mark_hit(self, digest: str) -> None:
        entry = self._entries.get(digest)
        if entry is None:
            return
        self._entries.move_to_end(digest)
        entry.hits += 1
        self.stats.hits += 1

    def promote(self, digest: str) -> bool:
        entry = self._entries.get(digest)
        if entry is None or entry.state == VERIFIED:
            return False
        entry.state = VERIFIED
        self.stats.promotions += 1
        self.generation += 1
        return True

    def demote(self, digest: str) -> bool:
        """Divergence: drop the entry so a clean copy can be re-recorded."""
        entry = self._entries.pop(digest, None)
        if entry is None:
            return False
        self.bytes_stored -= entry.byte_size
        self.stats.demotions += 1
        self.generation += 1
        return True

    # -- refcounts / eviction ------------------------------------------------

    def retain(self, digest: str) -> None:
        entry = self._entries.get(digest)
        if entry is not None:
            entry.refcount += 1

    def release(self, digest: str) -> None:
        entry = self._entries.get(digest)
        if entry is not None and entry.refcount > 0:
            entry.refcount -= 1

    def _make_room(self, size: int) -> bool:
        if size > self.capacity_bytes:
            return False
        while self.bytes_stored + size > self.capacity_bytes:
            victim = None
            for entry in self._entries.values():  # oldest first
                if entry.refcount == 0:
                    victim = entry
                    break
            if victim is None:
                return False
            del self._entries[victim.digest]
            self.bytes_stored -= victim.byte_size
            self.stats.evictions += 1
            self.generation += 1
        return True

    # -- reporting -----------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        verified = sum(
            1 for e in self._entries.values() if e.state == VERIFIED
        )
        return {
            "title": self.title,
            "entries": len(self._entries),
            "verified": verified,
            "bytes_stored": self.bytes_stored,
            "capacity_bytes": self.capacity_bytes,
            "generation": self.generation,
            **self.stats.as_dict(),
        }


class ReplayHub:
    """Fleet-wide collection of per-title replay stores.

    The controller owns one hub and hands the per-title namespace to
    every session and service device of that title; in a deployment the
    controller would ship verified entries to nodes, here shared state
    models the distributed store and the generation counter models the
    version a device advertises in its heartbeat.
    """

    def __init__(self, capacity_bytes_per_title: int = REPLAY_STORE_BYTES):
        self.capacity_bytes_per_title = capacity_bytes_per_title
        self.stores: Dict[str, ReplayStore] = {}
        #: sessions started per title (the fleet's warmth model)
        self._title_sessions: Dict[str, int] = {}

    def namespace(self, title: str) -> ReplayStore:
        store = self.stores.get(title)
        if store is None:
            store = ReplayStore(
                title, capacity_bytes=self.capacity_bytes_per_title
            )
            self.stores[title] = store
        return store

    def generation(self) -> int:
        """Hub-wide cache generation (advertised in fleet heartbeats)."""
        return sum(store.generation for store in self.stores.values())

    def session_started(self, title: str) -> bool:
        """Fleet warmth model: True when an earlier session of this title
        already recorded (so this session replays warm)."""
        count = self._title_sessions.get(title, 0)
        self._title_sessions[title] = count + 1
        if count == 0:
            # The recording session's deposits version the title cache.
            self.namespace(title).generation += 1
        return count > 0

    def report(self) -> Dict[str, Any]:
        return {
            "generation": self.generation(),
            "titles": {
                title: self.stores[title].report()
                for title in sorted(self.stores)
            },
        }
