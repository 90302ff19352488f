"""Wire-propagated causal trace context + deterministic exemplars.

Component-local observability (spans, SLOs) can say *transmit p99
regressed* but not *which frames* or *what the planner/replay/admission
layers did to them at that moment*.  This module closes that gap:

* :class:`TraceContext` — a deterministic per-frame trace identity.  The
  trace id is a pure function of ``(seed, session, frame)``, so it is
  shard- and worker-invariant: the same frame of the same seeded session
  carries the same id no matter how the fleet was partitioned or how
  many worker processes ran the sweep.  The context costs exactly
  :data:`TRACE_WIRE_BYTES` on the codec wire header (``to_wire``), and
  the uplink byte accounting charges it — savings math must not be
  silently inflated by free metadata.

* :class:`CausalLog` — armed on a simulator as ``sim.causal`` (mirroring
  ``sim.telemetry``): every component on a frame's path records causal
  events against the frame's trace, so one frame's end-to-end journey
  (client intercept -> codec -> transport -> server -> replay/plan/
  fleet -> present) reconstructs across components after the run.

* :class:`ExemplarReservoir` — a bounded, deterministic reservoir of
  ``(value, trace_id)`` samples.  Histograms and SLO trackers keep the
  worst observations' trace ids here, turning a p99 cell or a breach
  alert into a pointer at concrete, replayable frames.  Retention is by
  largest value with insertion-ordinal tie-break — no randomness — so
  the same seeded run yields byte-identical exemplar sets.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, NamedTuple, Optional, Tuple

#: bytes the trace context occupies in the codec wire header per frame
TRACE_WIRE_BYTES = 8

#: default causal-event ring capacity (a 60 s session emits ~10 events/frame)
DEFAULT_CAPACITY = 131_072

#: default exemplar reservoir bound (OpenMetrics exemplars are small)
DEFAULT_EXEMPLARS = 8


def derive_trace_id(seed: int, session: str, frame: int) -> str:
    """16-hex-char trace id, a pure function of ``(seed, session, frame)``."""
    blob = f"{seed}:{session}:{frame}".encode()
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


@dataclass(frozen=True)
class TraceContext:
    """One frame's causal identity, carried in the wire header."""

    trace_id: str
    session: str
    frame: int

    @classmethod
    def derive(cls, seed: int, session: str, frame: int) -> "TraceContext":
        return cls(
            trace_id=derive_trace_id(seed, session, frame),
            session=session,
            frame=frame,
        )

    def to_wire(self) -> bytes:
        """The 8 header bytes the codec prepends to every traced frame."""
        return bytes.fromhex(self.trace_id)

    @classmethod
    def from_wire(
        cls, data: bytes, session: str = "", frame: int = -1
    ) -> "TraceContext":
        if len(data) < TRACE_WIRE_BYTES:
            raise ValueError(
                f"trace wire header needs {TRACE_WIRE_BYTES} bytes, "
                f"got {len(data)}"
            )
        return cls(
            trace_id=data[:TRACE_WIRE_BYTES].hex(),
            session=session,
            frame=frame,
        )


class CausalEvent(NamedTuple):
    """One component's contribution to a frame's causal trace.

    A named tuple, built positionally: a traced session records one per
    component hop of every frame, so construction cost is paid often.
    """

    at_ms: float
    component: str          # "client" | "net" | "server" | "replay" | ...
    name: str
    trace_id: str           # "" for session-scoped events
    data: Dict[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "at_ms": round(self.at_ms, 4),
            "component": self.component,
            "name": self.name,
            "trace_id": self.trace_id,
            "data": {k: self.data[k] for k in sorted(self.data)},
        }


class CausalLog:
    """Bounded per-simulator causal event log, keyed by trace id.

    Arming is one line — the constructor attaches itself as
    ``sim.causal`` — and every feed point is behind an
    ``if sim.causal is not None`` guard, mirroring the telemetry hub.
    """

    def __init__(
        self,
        sim,
        session_id: str = "session",
        capacity: int = DEFAULT_CAPACITY,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.session_id = session_id
        self.capacity = capacity
        self._events: Deque[CausalEvent] = deque()
        self._by_trace: Dict[str, List[CausalEvent]] = {}
        #: frame-stamp history ``(at_ms, trace_id)``, for window witnesses;
        #: entries before ``_stamps_head`` are evicted and compacted away
        #: in one slice once they number ``capacity``
        self._stamps: List[Tuple[float, str]] = []
        self._stamps_head = 0
        self.dropped = 0
        #: the most recently stamped frame context; session-scoped events
        #: (radio switches, replans) attach to the frame in flight when one
        #: exists — "what the other layers did to it at that moment"
        self.last_trace: Optional[TraceContext] = None
        sim.causal = self

    # -- stamping ------------------------------------------------------------

    def frame_trace(self, frame: int) -> TraceContext:
        """Derive and remember the trace context for one frame intercept."""
        trace = TraceContext.derive(self.sim.seed, self.session_id, frame)
        self.last_trace = trace
        self._stamps.append((self.sim.now, trace.trace_id))
        if len(self._stamps) - self._stamps_head > self.capacity:
            self._stamps_head += 1
            if self._stamps_head >= self.capacity:
                del self._stamps[: self._stamps_head]
                self._stamps_head = 0
        return trace

    def session_trace(self, session: str) -> TraceContext:
        """A session-level trace identity (fleet admission/placement)."""
        return TraceContext.derive(self.sim.seed, session, -1)

    # -- recording -----------------------------------------------------------

    def event(
        self,
        component: str,
        name: str,
        trace: Optional[TraceContext] = None,
        **data: Any,
    ) -> CausalEvent:
        """Record one causal event.

        ``trace=None`` attaches the event to the most recently stamped
        frame (session-scoped layers like switching and planning), or to
        no trace when nothing has been stamped yet.
        """
        if trace is None:
            trace = self.last_trace
        trace_id = trace.trace_id if trace is not None else ""
        rec = CausalEvent(self.sim.now, component, name, trace_id, data)
        self._events.append(rec)
        if trace_id:
            self._by_trace.setdefault(trace_id, []).append(rec)
        if len(self._events) > self.capacity:
            old = self._events.popleft()
            self.dropped += 1
            if old.trace_id:
                # The log's oldest event is also its trace's oldest, and
                # one frame's trace holds a handful of events.
                index = self._by_trace[old.trace_id]
                del index[0]
                if not index:
                    del self._by_trace[old.trace_id]
        return rec

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def witness(self, upto_ms: float) -> str:
        """The last frame trace stamped at or before ``upto_ms``.

        Window-scoped SLO breaches (FPS floor, flap rate) have no single
        offending observation; the witness — the newest frame in flight
        when the window closed — is the deterministic stand-in their
        breach exemplars point at.  ``""`` when nothing is stamped yet.
        """
        head = self._stamps_head
        lo, hi = head, len(self._stamps)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._stamps[mid][0] <= upto_ms:
                lo = mid + 1
            else:
                hi = mid
        return self._stamps[lo - 1][1] if lo > head else ""

    def trace_of(self, trace_id: str) -> List[CausalEvent]:
        """Every event of one frame's causal trace, in time order."""
        return list(self._by_trace.get(trace_id, ()))

    def components_of(self, trace_id: str) -> List[str]:
        """Distinct components on one trace, sorted."""
        return sorted({e.component for e in self.trace_of(trace_id)})

    def trace_ids(self) -> List[str]:
        """Every trace id with at least one event, sorted."""
        return sorted(self._by_trace)

    def summary(self) -> Dict[str, Any]:
        """Deterministic JSON-able digest of the log."""
        by_component: Dict[str, int] = {}
        for e in self._events:
            by_component[e.component] = by_component.get(e.component, 0) + 1
        return {
            "session": self.session_id,
            "events": len(self._events),
            "dropped": self.dropped,
            "traces": len(self._by_trace),
            "by_component": {
                k: by_component[k] for k in sorted(by_component)
            },
        }


class ExemplarReservoir:
    """Bounded deterministic reservoir of the largest-valued exemplars.

    Keeps at most ``bound`` ``(value, ordinal, trace_id)`` entries,
    retaining the **largest values** seen (tail frames are what a p99
    cell or breach alert should point at).  Ties break on insertion
    ordinal (earlier wins), so retention is a pure function of the
    observation sequence — no randomness, byte-identical across runs and
    worker counts for the same stream.
    """

    __slots__ = ("bound", "_entries", "_ordinal")

    def __init__(self, bound: int = DEFAULT_EXEMPLARS):
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        self.bound = bound
        self._entries: List[Tuple[float, int, str]] = []
        self._ordinal = 0

    def offer(self, value: float, trace_id: str) -> None:
        """Offer one sample; kept only if it beats the current floor."""
        if not trace_id:
            return
        entry = (float(value), self._ordinal, trace_id)
        self._ordinal += 1
        if len(self._entries) < self.bound:
            self._entries.append(entry)
            self._entries.sort(key=lambda e: (-e[0], e[1]))
            return
        # Full: replace the smallest retained value when beaten.  A tie
        # keeps the incumbent (earlier ordinal), so adversarial insertion
        # orders cannot grow the reservoir or churn it nondeterministically.
        floor = self._entries[-1]
        if entry[0] > floor[0]:
            self._entries[-1] = entry
            self._entries.sort(key=lambda e: (-e[0], e[1]))

    def __len__(self) -> int:
        return len(self._entries)

    def exemplars(self) -> List[Dict[str, Any]]:
        """Retained exemplars, largest value first, deterministic order."""
        return [
            {"value": round(v, 4), "trace_id": t}
            for v, _, t in self._entries
        ]

    def trace_ids(self) -> List[str]:
        """Trace ids in retention order (largest value first)."""
        return [t for _, _, t in self._entries]
