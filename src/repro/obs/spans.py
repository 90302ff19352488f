"""Hierarchical span tracing for the offload pipeline.

A *span* is a named, categorized time interval — one stage of one frame's
journey through the acceleration pipeline (intercept → encode → transmit →
execute → video_encode → return → present), one fleet task's queue wait,
one migration.  Substrates record spans through the simulator's
:class:`SpanRecorder` (``sim.spans``); the aggregator in
``repro.metrics.spans`` turns them into per-stage percentiles and the
exporter in ``repro.obs.export`` renders them as Chrome trace-event JSON
loadable in Perfetto / ``chrome://tracing``.

Hierarchy is explicit: a stage span opened with ``parent=<handle>`` carries
its parent's qualified name and ``depth + 1``, so tests can assert nesting
and trace viewers can group a frame's stages under its root span.

Instant *marks* (a radio waking, a fault firing, a session admitted) ride
the same ring, so it is the run's one event log: the flight recorder's
and the invariant monitor's evidence tails are its newest marks.  With
causal tracing armed, a row of a frame's journey carries the frame's
``trace_id`` arg, and :meth:`SpanRecorder.trace_of` reads the journey
back.

Storage is a bounded ring (newest kept, ``dropped`` counted) so tracing is
safe to leave on for arbitrarily long sessions.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from operator import attrgetter
from typing import Any, Callable, Deque, Dict, List, NamedTuple, Optional

#: default span-ring size; a 60 s offload session emits ~15 k spans
DEFAULT_CAPACITY = 100_000

_tuple_new = tuple.__new__


class _SpanFields(NamedTuple):
    category: str
    name: str
    start_ms: float
    end_ms: float
    track: str = "main"          # trace-viewer row (thread) this span renders on
    frame_id: Optional[int] = None
    parent: Optional[str] = None  # qualified name of the enclosing span
    depth: int = 0
    #: instant occurrences (marks) are points, not latencies — aggregation
    #: skips them, and the exporter renders them as "I" events
    instant: bool = False
    #: None stands for "no args" and becomes a fresh empty dict per span
    args: Optional[Dict[str, Any]] = None


class Span(_SpanFields):
    """One completed, timed pipeline stage: an immutable record.

    A span is a plain tuple (the data path records ~15 k of them per
    60 s session), so its fields cannot be reassigned; ``args`` is the
    one mutable member and each span owns its own dict.
    """

    __slots__ = ()

    def __new__(
        cls,
        category: str,
        name: str,
        start_ms: float,
        end_ms: float,
        track: str = "main",
        frame_id: Optional[int] = None,
        parent: Optional[str] = None,
        depth: int = 0,
        instant: bool = False,
        args: Optional[Dict[str, Any]] = None,
    ) -> "Span":
        return _tuple_new(cls, (
            category, name, start_ms, end_ms, track, frame_id, parent,
            depth, instant, {} if args is None else args,
        ))

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    @property
    def qualified_name(self) -> str:
        return f"{self.category}.{self.name}"


class OpenSpan:
    """Handle for an in-flight span; ``end()`` seals it into the recorder."""

    __slots__ = (
        "recorder", "category", "name", "qualified_name", "start_ms",
        "track", "frame_id", "parent", "depth", "args", "closed",
    )

    def __init__(
        self,
        recorder: "SpanRecorder",
        category: str,
        name: str,
        start_ms: float,
        track: str,
        frame_id: Optional[int],
        parent: Optional["OpenSpan"],
        args: Dict[str, Any],
    ):
        self.recorder = recorder
        self.category = category
        self.name = name
        self.qualified_name = f"{category}.{name}"
        self.start_ms = start_ms
        self.track = track
        self.frame_id = frame_id
        self.parent = parent
        self.depth = (parent.depth + 1) if parent is not None else 0
        self.args = args
        self.closed = False

    def end(self, at_ms: Optional[float] = None, **args: Any) -> Optional[Span]:
        """Close the span at ``at_ms`` (default: the recorder's clock)."""
        if self.closed:
            return None
        self.closed = True
        recorder = self.recorder
        parent = self.parent
        return recorder.record(
            self.category,
            self.name,
            self.start_ms,
            recorder.clock() if at_ms is None else at_ms,
            self.track,
            self.frame_id,
            None if parent is None else parent.qualified_name,
            self.depth,
            False,
            # the begin() kwargs dict belongs to this handle alone
            {**self.args, **args} if args else self.args,
        )


class SpanRecorder:
    """Bounded store of completed spans, fed by the whole data path."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        capacity: int = DEFAULT_CAPACITY,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.clock = clock or (lambda: 0.0)
        self.capacity = capacity
        self.spans: Deque[Span] = deque()
        #: spans evicted once the ring filled (newest are kept)
        self.dropped = 0

    # -- recording -----------------------------------------------------------

    def add(
        self,
        category: str,
        name: str,
        start_ms: float,
        end_ms: float,
        track: str = "main",
        frame_id: Optional[int] = None,
        parent: Optional[str] = None,
        depth: int = 0,
        instant: bool = False,
        **args: Any,
    ) -> Span:
        """Record a completed span with explicit timestamps."""
        return self.record(
            category, name, start_ms, end_ms, track, frame_id, parent,
            depth, instant, args,
        )

    def record(
        self,
        category: str,
        name: str,
        start_ms: float,
        end_ms: float,
        track: str,
        frame_id: Optional[int],
        parent: Optional[str],
        depth: int,
        instant: bool,
        args: Dict[str, Any],
    ) -> Span:
        """Seal one span into the ring: :meth:`add` with every field
        positional and ``args`` a dict, stored, not copied."""
        if end_ms < start_ms:
            start_ms = end_ms
        span = _tuple_new(Span, (
            category, name, start_ms, end_ms, track, frame_id, parent,
            depth, instant, args,
        ))
        spans = self.spans
        spans.append(span)
        if len(spans) > self.capacity:
            spans.popleft()
            self.dropped += 1
        return span

    def begin(
        self,
        category: str,
        name: str,
        track: str = "main",
        frame_id: Optional[int] = None,
        parent: Optional[OpenSpan] = None,
        **args: Any,
    ) -> OpenSpan:
        """Open a span at the current clock; close it with ``handle.end()``."""
        return OpenSpan(
            self, category, name, self.clock(), track, frame_id, parent, args
        )

    def mark(
        self,
        category: str,
        name: str,
        track: str = "main",
        frame_id: Optional[int] = None,
        **args: Any,
    ) -> Span:
        """An instant occurrence (zero-duration span) at the current clock."""
        now = self.clock()
        return self.record(
            category, name, now, now, track, frame_id, None, 0, True, args
        )

    # -- queries -------------------------------------------------------------

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def by_category(self, category: str) -> List[Span]:
        return [s for s in self.spans if s.category == category]

    def categories(self) -> List[str]:
        return sorted({s.category for s in self.spans})

    def stage_names(self) -> List[str]:
        return sorted({s.name for s in self.spans})

    def trace_of(self, trace_id: str) -> List[Span]:
        """One frame's causal trace: the rows whose ``trace_id`` arg is
        ``trace_id``, in start-time order (ring order breaks ties)."""
        if not trace_id:
            return []
        rows = [s for s in self.spans if s.args.get("trace_id") == trace_id]
        rows.sort(key=attrgetter("start_ms"))
        return rows

    def components_of(self, trace_id: str) -> List[str]:
        """The distinct categories on one frame's trace, sorted."""
        return sorted({s.category for s in self.trace_of(trace_id)})

    def tail_marks(self, n: int) -> List[Span]:
        """The newest ``n`` instant marks in the ring, oldest first."""
        tail = list(islice((s for s in reversed(self.spans) if s.instant), n))
        tail.reverse()
        return tail

    def __len__(self) -> int:
        return len(self.spans)

    def clear(self) -> None:
        self.spans.clear()
        self.dropped = 0
