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
  ``sim.telemetry``): the per-session stamper.  Every component on a
  frame's path puts the frame's trace id on the span-ring rows it
  records, so one frame's end-to-end journey (intercept -> encode ->
  transmit -> execute -> return -> present, plus the marks of the
  layers that acted on it) reads back from the ring with
  :meth:`~repro.obs.spans.SpanRecorder.trace_of`.

* :class:`ExemplarReservoir` — a bounded, deterministic reservoir of
  ``(value, trace_id)`` samples.  Histograms and SLO trackers keep the
  worst observations' trace ids here, turning a p99 cell or a breach
  alert into a pointer at concrete, replayable frames.  Retention is by
  largest value with insertion-ordinal tie-break — no randomness — so
  the same seeded run yields byte-identical exemplar sets.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: bytes the trace context occupies in the codec wire header per frame
TRACE_WIRE_BYTES = 8

#: frame stamps kept for window witnesses (over an hour of frames at 30 FPS)
MAX_STAMPS = 131_072

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


class CausalLog:
    """The per-session trace stamper, armed as ``sim.causal``.

    The engine stamps each frame at intercept (:meth:`frame_trace`); the
    components on the frame's path put its trace id on the span-ring rows
    they record, so the ring holds one frame's whole journey and
    :meth:`~repro.obs.spans.SpanRecorder.trace_of` reads it back.  The
    stamper itself keeps only the newest context and the stamp history
    the SLO window witnesses read.
    """

    def __init__(self, sim, session_id: str = "session"):
        self.sim = sim
        self.session_id = session_id
        #: frame-stamp history ``(at_ms, trace_id)``, for window witnesses;
        #: entries before ``_stamps_head`` are evicted and compacted away
        #: in one slice once they number ``MAX_STAMPS``
        self._stamps: List[Tuple[float, str]] = []
        self._stamps_head = 0
        #: the most recently stamped frame context; session-scoped marks
        #: (radio switches, plan commits) carry its trace id — "what the
        #: other layers did to the frame in flight at that moment"
        self.last_trace: Optional[TraceContext] = None
        sim.causal = self

    def frame_trace(self, frame: int) -> TraceContext:
        """Derive and remember the trace context for one frame intercept."""
        trace = TraceContext.derive(self.sim.seed, self.session_id, frame)
        self.last_trace = trace
        self._stamps.append((self.sim.now, trace.trace_id))
        if len(self._stamps) - self._stamps_head > MAX_STAMPS:
            self._stamps_head += 1
            if self._stamps_head >= MAX_STAMPS:
                del self._stamps[: self._stamps_head]
                self._stamps_head = 0
        return trace

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


def trace_args(sim) -> Dict[str, str]:
    """``{"trace_id": ...}`` of the frame in flight, for a session-scoped
    mark; empty when tracing is off or nothing is stamped yet."""
    causal = sim.causal
    if causal is None or causal.last_trace is None:
        return {}
    return {"trace_id": causal.last_trace.trace_id}


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
