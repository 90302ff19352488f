"""Event loop, callbacks and one-shot events.

The kernel is a small, fully deterministic discrete-event simulator in
which every action is a callback:

* :class:`Simulator` owns the event queue and the clock (milliseconds).
* :class:`TimerHandle` is a callback scheduled with
  :meth:`Simulator.call_later` / :meth:`Simulator.call_at`, or parked on
  an :class:`Event` with :meth:`Event.on_trigger`; ``cancel()`` abandons
  it.  A long-lived loop is a chain of them: each step schedules the
  next, at its delay or on the event it waits for.  A loop starts after
  a zero-time hop (``call_later(0.0, first)``), which fixes where its
  entries fall among same-instant ties.  :meth:`Simulator.every` is the
  periodic case.
* :meth:`Simulator.soon` runs a callback that a waiter would have woken
  for: at once when nothing else is due at the current instant, otherwise
  queued behind what is.  A pipeline stage hands its next item on with it
  instead of a zero-time hop through a queue.
* Ties in the event queue are broken by insertion order, never by object
  identity, so two runs with the same seed replay identically.  Every
  entry is a ``(time, seq, handle)`` triple.
* :meth:`Simulator.reserve` keeps a ``(time, seq)`` place without
  queueing anything, for a callback that will most likely turn out to do
  nothing observable; :meth:`Simulator.call_reserved` queues it there
  later if the run has not passed the place yet.  The run loops record
  the seq of the running entry, so a tie at one instant is decided as
  if the callback had been queued all along.  Until then the place is
  not in the queue: it does not keep a run going, and :meth:`soon` does
  not count it as due.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.random import RandomStream


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double triggers, time travel, ...)."""


def _fault(value: float) -> str:
    """What is wrong with a rejected delay."""
    return "NaN" if value != value else "negative"


class TimerHandle:
    """A callback queued on the simulator; ``cancel()`` abandons it.

    It takes its place in the queue's ``(time, seq)`` order when it is
    scheduled, or, parked on an event, when the event triggers.  A
    cancelled callback is discarded by the run loop without advancing the
    clock.  ``alive`` is true until the callback runs or is cancelled.
    """

    __slots__ = ("fn", "args", "alive")

    def __init__(self, fn: Callable[..., Any], args: Tuple[Any, ...]):
        self.fn = fn
        self.args = args
        self.alive = True

    def cancel(self) -> None:
        """Never run the callback; drops its references at once."""
        self.alive = False
        self.fn = None
        self.args = ()

    def _fire(self) -> None:
        # Drop the references before the call, so a spent handle pins
        # nothing.
        fn, args = self.fn, self.args
        self.alive = False
        self.fn = None
        self.args = ()
        fn(*args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self.alive else "done"
        return f"<TimerHandle {self.fn!r} {state}>"


class Event:
    """A one-shot occurrence that callbacks can wait on.

    An event is *triggered* at most once with an optional value.  The
    callbacks parked on it with :meth:`on_trigger` are queued then, at the
    trigger time, in the order they were parked.
    """

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self.triggered = False
        self.value: Any = None
        self._waiters: List[TimerHandle] = []

    def trigger(self, value: Any = None) -> "Event":
        """Fire the event, queueing every parked callback at the current
        time."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        for handle in self._waiters:
            self.sim._queue_now(handle)
        self._waiters.clear()
        return self

    def on_trigger(self, fn: Callable[..., Any], *args: Any) -> TimerHandle:
        """Run ``fn(*args)`` once this event triggers.

        The callback is queued at the trigger time, after the callbacks
        parked before it; if the event has already fired, it is queued at
        once, behind what is already due now.  It reads the value from
        ``event.value``.  ``cancel()`` on the returned handle drops it.

        A parked callback is not in the simulator's queue, so
        :meth:`Simulator.teardown` cannot reach it: the owner of an event
        that may never fire registers :meth:`cancel_waiters` (or a
        breaker that calls it) with :meth:`Simulator.on_teardown`.
        """
        handle = TimerHandle(fn, args)
        if self.triggered:
            self.sim._queue_now(handle)
        else:
            self._waiters.append(handle)
        return handle

    def cancel_waiters(self) -> None:
        """Cancel every callback parked on this event."""
        for handle in self._waiters:
            handle.cancel()
        self._waiters.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Simulator:
    """The event loop: a clock plus a priority queue of callbacks."""

    def __init__(
        self,
        seed: int = 0,
        shard_id: int = 0,
    ):
        # Deferred import: repro.obs sits above repro.sim in the layer
        # diagram; importing it at module scope would be circular.
        from repro.obs.registry import MetricsRegistry
        from repro.obs.spans import SpanRecorder

        if shard_id < 0:
            raise SimulationError(f"negative shard_id {shard_id}")
        self.seed = seed
        #: which shard of a partitioned fleet this kernel simulates; random
        #: streams are namespaced by it so sibling shards never share draws
        #: (shard 0 keeps the legacy single-kernel derivation exactly)
        self.shard_id = shard_id
        self.now = 0.0
        #: the run's one event log: frame/stage spans and instant marks
        self.spans = SpanRecorder(clock=lambda: self.now)
        #: counters / gauges / histograms registry
        self.metrics = MetricsRegistry()
        #: optional repro.check.DigestLog; substrates record per-frame
        #: command digests here when differential replay is armed
        self.digests: Optional[Any] = None
        #: optional repro.obs.telemetry.TelemetryHub; substrates stream
        #: labeled time-series observations here when armed
        self.telemetry: Optional[Any] = None
        #: optional repro.obs.causal.CausalLog; stamps each frame's
        #: wire-propagated trace context when armed
        self.causal: Optional[Any] = None
        #: optional repro.obs.flight.FlightRecorder; alert/violation/
        #: replan triggers freeze postmortem bundles here when armed
        self.flight: Optional[Any] = None
        #: ``(time, seq, callback)``
        self._queue: List[Tuple[float, int, TimerHandle]] = []
        self._counter = itertools.count()
        #: seq of the entry running now (between runs, of the last one)
        self._running = -1
        self._message_seq = itertools.count(1)
        self._streams: dict = {}
        #: set by :meth:`teardown`; a torn-down simulator cannot run again
        self.torn_down = False
        #: ``(fn, args)`` breakers registered with :meth:`on_teardown`
        self._breakers: List[Tuple[Callable[..., Any], Tuple[Any, ...]]] = []

    def next_message_id(self) -> int:
        """The next sim-scoped network message id.

        Message ids land in trace records (link drops) and so in frozen
        flight bundles; drawing them from the sim instead of the
        process-global fallback counter keeps those artifacts a pure
        function of the seed no matter how many sims one process ran.
        """
        return next(self._message_seq)

    # -- randomness ---------------------------------------------------------

    def stream(self, name: str) -> RandomStream:
        """Return the named random stream, creating it deterministically.

        The stream is a pure function of ``(seed, shard_id, name)`` —
        never of creation order — so two runs that create their streams in
        different orders draw identical sequences per name, and sibling
        shards of a partitioned fleet draw from disjoint namespaces.
        """
        if name not in self._streams:
            self._streams[name] = RandomStream(
                self.seed, name, shard_id=self.shard_id
            )
        return self._streams[name]

    # -- events and callbacks ----------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def on_teardown(self, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` once, when the simulator is torn down.

        A component that wires an edge closing a reference cycle (a
        callback into its owner, a waiter parked on an event that may
        never fire) registers what drops that edge when it is built, so
        every runner that ends in :meth:`teardown` leaves no cycle.
        """
        self._breakers.append((fn, args))

    def teardown(self) -> None:
        """Dispose of the simulation: cancel every queued callback.

        The queue is cleared, the span clock is pinned at the final time
        and the armed observers (telemetry, causal log, flight recorder,
        digests) are detached, which drops the references that point back
        at the simulator.  Then every breaker registered with
        :meth:`on_teardown` runs once, in registration order, and the
        list is dropped, so the simulator holds no reference back to its
        components.  What was recorded stays readable, but a torn-down
        simulator cannot run again: ``run``, ``run_until_event``,
        ``call_later``, ``call_at``, ``reserve`` and ``call_reserved``
        raise :class:`SimulationError`.
        """
        for entry in self._queue:
            entry[2].cancel()
        self._queue.clear()
        self.torn_down = True
        now = self.now
        self.spans.clock = lambda: now
        self.telemetry = self.causal = self.flight = None
        self.digests = None
        for fn, args in self._breakers:
            fn(*args)
        self._breakers.clear()

    def call_later(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> TimerHandle:
        """Run ``fn(*args)`` ``delay`` ms from now; returns a cancellable
        handle.

        The callback takes its place in the queue's ``(time, seq)`` order
        now, at scheduling time.
        """
        if not delay >= 0:
            raise SimulationError(
                f"call_later with {_fault(delay)} delay {delay}"
            )
        if self.torn_down:  # inline: this is the per-frame hot path
            raise SimulationError("call_later on a torn-down simulator")
        handle = TimerHandle(fn, args)
        heappush(
            self._queue, (self.now + float(delay), next(self._counter), handle)
        )
        return handle

    def call_at(
        self, when: float, fn: Callable[..., Any], *args: Any
    ) -> TimerHandle:
        """Run ``fn(*args)`` at absolute time ``when``, exactly.

        The callback is queued at the literal ``when``, not at
        ``now + (when - now)``, so callbacks anchored to a shared epoch
        fire at bit-identical times whatever the current clock reads.
        """
        self._check_live("call_at")
        if when != when:
            raise SimulationError(f"call_at({when}): time is NaN")
        if when < self.now:
            raise SimulationError(
                f"call_at({when}) is in the past (now={self.now})"
            )
        handle = TimerHandle(fn, args)
        heappush(self._queue, (float(when), next(self._counter), handle))
        return handle

    def reserve(self, delay: float) -> Tuple[float, int]:
        """The ``(time, seq)`` place ``call_later(delay, ...)`` would take
        now; nothing is queued until :meth:`call_reserved` is called."""
        if not delay >= 0:
            raise SimulationError(f"reserve with {_fault(delay)} delay {delay}")
        self._check_live("reserve")
        return (self.now + float(delay), next(self._counter))

    def call_reserved(
        self, place: Tuple[float, int], fn: Callable[..., Any], *args: Any
    ) -> bool:
        """Queue ``fn(*args)`` at exactly ``place``, from :meth:`reserve`.

        Returns ``False`` and queues nothing when the run has already gone
        past the place: its time is before now, or it is now and its seq
        comes before the running entry's.  Called between runs, the place
        is compared with the last entry that ran.
        """
        self._check_live("call_reserved")
        when, seq = place
        if when < self.now or (when == self.now and seq < self._running):
            return False
        heappush(self._queue, (when, seq, TimerHandle(fn, args)))
        return True

    def every(self, period: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` every ``period`` ms until teardown.

        The first run is ``period`` ms after a zero-time start hop, and
        each run queues the next after it returns: the schedule of a loop
        that sleeps ``period`` and then acts, started now.
        """
        self.call_later(
            0.0, self.call_later, period, self._tick, period, fn, args
        )

    def soon(self, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` where a woken waiter would run.

        A callback woken now is queued behind every entry already due at
        the current instant.  When nothing is due, it would run next
        anyway, so ``fn`` runs at once; otherwise it is queued behind
        those entries with ``call_later(0.0, ...)``.  Cancelled entries
        count as due, which only errs towards queueing.  A place kept
        with :meth:`reserve` and not queued does not count: it stands
        for a callback that would do nothing observable, so running
        ``fn`` ahead of it changes nothing.
        """
        queue = self._queue
        if queue and queue[0][0] <= self.now:
            self.call_later(0.0, fn, *args)
        else:
            fn(*args)

    # -- scheduling internals ------------------------------------------------

    def _tick(
        self, period: float, fn: Callable[..., Any], args: Tuple[Any, ...]
    ) -> None:
        fn(*args)
        self.call_later(period, self._tick, period, fn, args)

    def _queue_now(self, handle: TimerHandle) -> None:
        heappush(self._queue, (self.now, next(self._counter), handle))

    def _check_live(self, entry: str) -> None:
        if self.torn_down:
            raise SimulationError(f"{entry} on a torn-down simulator")

    @staticmethod
    def _check_limit(entry: str, limit: Optional[float]) -> None:
        if limit is not None and limit != limit:
            raise SimulationError(f"{entry}: time limit is NaN")

    # -- running --------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the queue drains or the clock passes ``until``.

        Returns the final simulation time.
        """
        self._check_live("run")
        self._check_limit("run", until)
        queue = self._queue
        while queue:
            when, order, handle = queue[0]
            if not handle.alive:
                # A cancelled callback (e.g. an ACKed retransmission
                # timer): discard without touching the clock.
                heappop(queue)
                continue
            if until is not None and when > until:
                self.now = max(self.now, until)
                return self.now
            heappop(queue)
            if when < self.now - 1e-9:
                raise SimulationError("event queue went backwards in time")
            self.now = when
            self._running = order
            handle._fire()
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    def run_until_event(self, event: Event, limit: float = 1e12) -> Any:
        """Run until ``event`` triggers (or the clock passes ``limit``).

        Stops *at* the trigger, so gauges and energy integrals are not
        diluted by background loops (thermal steps, samplers) that would
        otherwise keep the queue alive forever.
        """
        self._check_live("run_until_event")
        self._check_limit("run_until_event", limit)
        queue = self._queue
        while queue and not event.triggered:
            entry = heappop(queue)
            when, order, handle = entry
            if not handle.alive:
                continue
            if when > limit:
                heappush(queue, entry)
                self.now = max(self.now, limit)
                break
            if when < self.now - 1e-9:
                raise SimulationError("event queue went backwards in time")
            self.now = when
            self._running = order
            handle._fire()
        return event.value if event.triggered else None
