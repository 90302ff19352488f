"""Event loop, processes and synchronization primitives.

The kernel is a conventional coroutine-based discrete-event simulator in the
style of SimPy, kept intentionally small and fully deterministic:

* :class:`Simulator` owns the event queue and the clock (milliseconds).
* :class:`Process` wraps a generator; the generator yields *waitables*
  (events, delays, or other processes) and is resumed when they fire.
* :class:`TimerHandle` is a plain callback scheduled with
  :meth:`Simulator.call_later` / :meth:`Simulator.call_at` or parked on an
  event with :meth:`Event.on_trigger`: one-shot "sleep, then do X" work
  without a generator, a process or a completion event.
* :meth:`Simulator.soon` runs a callback that a waiter would have woken
  for: at once when nothing else is due at the current instant, otherwise
  queued behind what is (the position a woken process's resumption takes).
  A pipeline stage hands its next item on with it instead of a zero-time
  hop through a queue.
* Ties in the event queue are broken by insertion order, never by object
  identity, so two runs with the same seed replay identically.  Callbacks
  and process resumptions share one queue and one ``(time, seq)`` order.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import (
    Any, Callable, Generator, Iterable, List, Optional, Tuple, Union,
)

from repro.sim.random import RandomStream


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double triggers, time travel, ...)."""


def _fault(value: float) -> str:
    """What is wrong with a rejected delay."""
    return "NaN" if value != value else "negative"


class TimerHandle:
    """A callback queued on the simulator; ``cancel()`` abandons it.

    It sits on the same heap as process resumptions and takes its place in
    the ``(time, seq)`` order when it is scheduled.  A cancelled callback
    is discarded by the run loop without advancing the clock.  ``alive`` is
    true until the callback runs or is cancelled.
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

    def _fire(self, _value: Any = None) -> None:
        # Drop the references before the call, so a spent handle pins
        # nothing (a timeout's handle would otherwise keep a cycle).
        fn, args = self.fn, self.args
        self.alive = False
        self.fn = None
        self.args = ()
        fn(*args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self.alive else "done"
        return f"<TimerHandle {self.fn!r} {state}>"


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* at most once with an optional value.  Processes
    waiting on it are resumed at the trigger time, and callbacks parked on
    it with :meth:`on_trigger` run then, all in the order they started
    waiting.
    """

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self.triggered = False
        self.value: Any = None
        self._waiters: List[Union["Process", TimerHandle]] = []

    def trigger(self, value: Any = None) -> "Event":
        """Fire the event, waking all waiters at the current time."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        for proc in self._waiters:
            self.sim._schedule_resume(proc, value)
        self._waiters.clear()
        return self

    def add_waiter(self, proc: "Process") -> None:
        if self.triggered:
            self.sim._schedule_resume(proc, self.value)
        else:
            self._waiters.append(proc)

    def remove_waiter(self, proc: "Process") -> None:
        if proc in self._waiters:
            self._waiters.remove(proc)

    def on_trigger(self, fn: Callable[..., Any], *args: Any) -> TimerHandle:
        """Run ``fn(*args)`` once this event triggers.

        The callback is woken exactly as a waiting process would be: queued
        at the trigger time, after the waiters that joined before it (at
        once, if the event has already fired).  It reads the value from
        ``event.value``.  ``cancel()`` on the returned handle drops it.
        """
        handle = TimerHandle(fn, args)
        self.add_waiter(handle)
        return handle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class TimerEvent(Event):
    """The event :meth:`Simulator.timeout` returns, backed by a callback.

    Triggering it early (externally, before the delay expires) cancels the
    backing ``_timer`` callback, so a satisfied timeout never keeps
    :meth:`Simulator.run` alive for the rest of its delay — the same leak
    class the transport's RTO timers had before they became cancellable.
    ``cancel`` abandons a pending timer outright without triggering it,
    which is how :meth:`CompositeEvent.abandon` reaps orphaned timeouts.
    """

    def __init__(self, sim: "Simulator", name: str = ""):
        super().__init__(sim, name=name)
        #: the callback waiting out the delay; cancelled on early trigger
        self._timer: Optional[TimerHandle] = None

    @property
    def timer(self) -> Optional[TimerHandle]:
        """Handle on the backing timer callback (for tests and reapers)."""
        return self._timer

    def trigger(self, value: Any = None) -> "Event":
        super().trigger(value)
        if self._timer is not None:
            # Externally triggered: the timer is still waiting out the
            # delay — cancel it so the queue can drain now.  (When the
            # timer itself fires, its handle is already spent.)
            self._timer.cancel()
        return self

    def cancel(self) -> None:
        """Abandon the pending timer without ever triggering the event."""
        if not self.triggered and self._timer is not None:
            self._timer.cancel()

    def _expire(self, value: Any) -> None:
        if not self.triggered:
            self.trigger(value)


class CompositeEvent(Event):
    """An event combined from other events (:meth:`Simulator.all_of`).

    Besides behaving like a plain :class:`Event`, it keeps handles on its
    watcher processes and source events so it can be *abandoned*:
    :meth:`abandon` kills watchers still parked on sources that may never
    fire (they would otherwise sit in waiter lists forever, pinning the
    partially-filled values of an ``all_of``) and reaps orphaned pending
    timeouts.  :meth:`Simulator.teardown` abandons every still-pending
    composite, so a discarded simulator never leaks watcher processes.
    """

    def __init__(self, sim: "Simulator", events: Iterable[Event], name: str = ""):
        super().__init__(sim, name=name)
        self._sources: List[Event] = list(events)
        self._watchers: List["Process"] = []

    def abandon(self) -> None:
        """Reap the watcher processes; the composite will never be waited on."""
        for watcher in self._watchers:
            if watcher.alive:
                watcher.kill()
        for evt in self._sources:
            if (
                isinstance(evt, TimerEvent)
                and not evt.triggered
                and not evt._waiters
            ):
                evt.cancel()


class Process:
    """A running coroutine on the simulator.

    The wrapped generator may yield:

    * a ``float``/``int`` — sleep for that many milliseconds;
    * an :class:`Event` — wait until it is triggered (resumes with its value);
    * another :class:`Process` — wait for it to finish (resumes with its
      return value);
    * ``None`` — yield control and resume immediately (same timestamp).

    When the generator returns, the process's completion event fires with the
    returned value.  That event is created on first access of :attr:`done`
    (already triggered, if the process has finished by then).
    """

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._done: Optional[Event] = None
        self._result: Any = None
        self.alive = True
        self._waiting_on: Optional[Event] = None

    @property
    def done(self) -> Event:
        """The completion event; fires with the generator's return value."""
        done = self._done
        if done is None:
            done = self._done = Event(self.sim, name=f"{self.name}.done")
            if not self.alive:
                done.trigger(self._result)
        return done

    @property
    def result(self) -> Any:
        if self.alive:
            raise SimulationError(f"process {self.name!r} has not finished")
        return self._result

    def _finish(self, value: Any) -> None:
        self.alive = False
        self._result = value
        if self._done is not None:
            self._done.trigger(value)

    def kill(self) -> None:
        """Tear the process down immediately, without running it again.

        The process is detached from whatever it was waiting on, its
        generator is closed, and any entry it still has in the event queue
        (a delay sleep has no event to detach from) is skipped by the run
        loop *without advancing the clock*: a killed process is not
        ``alive``, and it never becomes alive again.
        This is the primitive behind cancellable timers — an ACKed
        retransmission timeout must not keep ``Simulator.run()`` alive
        until its expiry.
        """
        if not self.alive:
            return
        if self._waiting_on is not None:
            self._waiting_on.remove_waiter(self)
            self._waiting_on = None
        self.alive = False
        self.gen.close()
        self._finish(None)

    def _step(self, value: Any) -> None:
        """Advance the generator by one yield.

        The two common yields — a float sleep and a plain :class:`Event` —
        are queued inline; everything else goes through :meth:`_wait_on`.
        """
        self._waiting_on = None
        try:
            target = self.gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        cls = target.__class__
        if cls is float:
            if not target >= 0.0:
                self._bad_delay(target)
            sim = self.sim
            heappush(
                sim._queue,
                (sim.now + target, next(sim._counter), self, None),
            )
        elif cls is Event:
            self._waiting_on = target
            if target.triggered:
                sim = self.sim
                heappush(sim._queue, (
                    sim.now, next(sim._counter), self, target.value
                ))
            else:
                target._waiters.append(self)
        else:
            self._wait_on(target)

    def _bad_delay(self, target: float) -> None:
        raise SimulationError(
            f"process {self.name!r} yielded {_fault(target)} delay {target}"
        )

    def _wait_on(self, target: Any) -> None:
        sim = self.sim
        if target is None:
            sim._schedule_resume(self, None)
        elif isinstance(target, (int, float)):
            if not target >= 0:
                self._bad_delay(target)
            sim._schedule_resume(self, None, delay=float(target))
        elif isinstance(target, Event):
            self._waiting_on = target
            target.add_waiter(self)
        elif isinstance(target, Process):
            self._waiting_on = target.done
            target.done.add_waiter(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported {target!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"


class Simulator:
    """The event loop: a clock plus a priority queue of resumptions."""

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
        #: optional repro.check.InvariantMonitor; notified of new timers
        self.monitor: Optional[Any] = None
        #: optional repro.obs.telemetry.TelemetryHub; substrates stream
        #: labeled time-series observations here when armed
        self.telemetry: Optional[Any] = None
        #: optional repro.obs.causal.CausalLog; components on a frame's
        #: path record wire-propagated causal events here when armed
        self.causal: Optional[Any] = None
        #: optional repro.obs.flight.FlightRecorder; alert/violation/
        #: replan triggers freeze postmortem bundles here when armed
        self.flight: Optional[Any] = None
        #: ``(time, seq, process or callback, value)``
        self._queue: List[
            Tuple[float, int, Union[Process, TimerHandle], Any]
        ] = []
        self._counter = itertools.count()
        self._message_seq = itertools.count(1)
        self._streams: dict = {}
        self._processes: List[Process] = []
        self._composites: List[CompositeEvent] = []
        #: set by :meth:`teardown`; a torn-down simulator cannot run again
        self.torn_down = False

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

    # -- process / event management ----------------------------------------

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new process; it first runs at the current time."""
        self._check_live("spawn")
        proc = Process(self, gen, name=name)
        self._processes.append(proc)
        # Long sessions spawn one short-lived process per message/timer;
        # keep the registry from growing without bound.
        if len(self._processes) > 8192:
            self._processes = [p for p in self._processes if p.alive]
            self._composites = [
                c for c in self._composites if not c.triggered
            ]
        self._schedule_resume(proc, None)
        return proc

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> "TimerEvent":
        """An event that fires ``delay`` ms from now.

        The returned :class:`TimerEvent` is cancellable: triggering it
        early (externally) or calling ``cancel()`` cancels the backing timer
        callback immediately, so :meth:`run` is never held open by a
        timeout that already served its purpose.
        """
        if not delay >= 0:
            raise SimulationError(f"{_fault(delay)} timeout {delay}")
        evt = TimerEvent(self, name=name or f"timeout@{self.now + delay:.3f}")
        evt._timer = self.call_later(delay, evt._expire, value)
        if self.monitor is not None:
            self.monitor.note_timer(evt)
        return evt

    def all_of(self, events: Iterable[Event], name: str = "all") -> Event:
        """An event that fires when every one of ``events`` has fired.

        The returned :class:`CompositeEvent` can be reaped: if one of the
        sources never triggers, ``abandon()`` (or :meth:`teardown`) kills
        the watcher processes so they do not sit in waiter lists forever
        pinning the partially filled values list.
        """
        events = list(events)
        combined = CompositeEvent(self, events, name=name)
        remaining = [len(events)]
        values: List[Any] = [None] * len(events)
        if not events:
            combined.trigger([])
            return combined

        def _watch(idx: int, evt: Event) -> Generator:
            values[idx] = yield evt
            remaining[0] -= 1
            if remaining[0] == 0:
                combined.trigger(list(values))

        for idx, evt in enumerate(events):
            combined._watchers.append(
                self.spawn(_watch(idx, evt), name=f"_allof.{name}.{idx}")
            )
        self._composites.append(combined)
        return combined

    def teardown(self) -> None:
        """Dispose of the simulation: reap watchers, close every process.

        Abandons still-pending composite events (their watchers would
        otherwise wait forever on sources that never fire), closes the
        generators of all remaining live processes, cancels every queued
        callback and clears the event queue.  After teardown the simulator
        holds no live coroutines, so a shard worker can discard thousands
        of finished kernels without leaking suspended generator frames.

        The span clock is pinned at the final time and the armed
        observers (telemetry, monitor, causal log, flight recorder,
        digests) are detached, which drops the references that point back
        at the simulator.  What was recorded stays readable, but a
        torn-down simulator cannot run again: ``run``,
        ``run_until_event``, ``call_later``, ``call_at`` and ``spawn``
        raise :class:`SimulationError`.
        """
        for composite in self._composites:
            if not composite.triggered:
                composite.abandon()
        self._composites = []
        for proc in list(self._processes):
            if proc.alive:
                proc.kill()
        self._processes = []
        for entry in self._queue:
            if entry[2].__class__ is TimerHandle:
                entry[2].cancel()
        self._queue.clear()
        self.torn_down = True
        now = self.now
        self.spans.clock = lambda: now
        self.telemetry = self.monitor = self.causal = self.flight = None
        self.digests = None

    def call_later(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> TimerHandle:
        """Run ``fn(*args)`` ``delay`` ms from now; returns a cancellable
        handle.

        This is the primitive for one-shot "sleep, then do X" work: no
        generator, process or completion event is created.  The callback
        takes its place in the queue's ``(time, seq)`` order now, at
        scheduling time.
        """
        if not delay >= 0:
            raise SimulationError(
                f"call_later with {_fault(delay)} delay {delay}"
            )
        if self.torn_down:  # inline: this is the per-frame hot path
            raise SimulationError("call_later on a torn-down simulator")
        handle = TimerHandle(fn, args)
        heappush(
            self._queue,
            (self.now + float(delay), next(self._counter), handle, None),
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
        heappush(
            self._queue, (float(when), next(self._counter), handle, None)
        )
        return handle

    def soon(self, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` where a woken waiter would run.

        A woken process resumes behind every entry already due at the
        current instant.  When nothing is due, it would run next anyway,
        so ``fn`` runs at once; otherwise it is queued behind those entries
        with ``call_later(0.0, ...)``.  Cancelled entries count as due,
        which only errs towards queueing.
        """
        queue = self._queue
        if queue and queue[0][0] <= self.now:
            self.call_later(0.0, fn, *args)
        else:
            fn(*args)

    # -- scheduling internals ------------------------------------------------

    def _schedule_resume(
        self, proc: Process, value: Any, delay: float = 0.0
    ) -> None:
        heappush(
            self._queue, (self.now + delay, next(self._counter), proc, value)
        )

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
            when, _order, proc, value = queue[0]
            if not proc.alive:
                # Stale resumption of a killed process or a cancelled
                # callback (e.g. an ACKed retransmission timer): discard
                # without touching the clock.
                heappop(queue)
                continue
            if until is not None and when > until:
                self.now = max(self.now, until)
                return self.now
            heappop(queue)
            if when < self.now - 1e-9:
                raise SimulationError("event queue went backwards in time")
            self.now = when
            if proc.__class__ is TimerHandle:
                proc._fire(value)
            else:
                proc._step(value)
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    def run_until_event(self, event: Event, limit: float = 1e12) -> Any:
        """Run until ``event`` triggers (or the clock passes ``limit``).

        Stops *at* the trigger, so gauges and energy integrals are not
        diluted by background processes (thermal loops, samplers) that
        would otherwise keep the queue alive forever.
        """
        self._check_live("run_until_event")
        self._check_limit("run_until_event", limit)
        queue = self._queue
        while queue and not event.triggered:
            when, _order, proc, value = heappop(queue)
            if not proc.alive:
                continue
            if when > limit:
                heappush(queue, (when, _order, proc, value))
                self.now = max(self.now, limit)
                break
            if when < self.now - 1e-9:
                raise SimulationError("event queue went backwards in time")
            self.now = when
            if proc.__class__ is TimerHandle:
                proc._fire(value)
            else:
                proc._step(value)
        return event.value if event.triggered else None

    def run_until_process(self, proc: Process, limit: float = 1e12) -> Any:
        """Run until ``proc`` completes; returns its result."""
        self.run_until_event(proc.done, limit=limit)
        if not proc.done.triggered:
            raise SimulationError(
                f"process {proc.name!r} did not finish by t={limit}"
            )
        return proc.result
