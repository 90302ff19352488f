"""Queueing primitives built on the kernel: stores, resources, gauges.

These mirror the facilities a GPU command queue, a radio transmit queue or a
service-device request queue need: FIFO hand-off between producer and
consumer processes, with optional capacity limits.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, Generator, List, Optional, Tuple

from repro.sim.kernel import Event, SimulationError, Simulator


class Store:
    """An unbounded-or-bounded FIFO channel between processes.

    ``put`` is immediate unless the store is full (then the producer's
    yielded event fires once space frees); ``get`` yields an event that fires
    when an item is available.  Ordering is strictly FIFO for both items and
    waiters.  An accepted ``put`` returns one shared, already-triggered
    event; only a blocked putter gets an event of its own.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = ""):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "store"
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()
        self._put_name = f"{self.name}.put"
        self._get_name = f"{self.name}.get"
        self._accepted = Event(sim, name=self._put_name).trigger(None)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Returns an event that fires once the item has been accepted."""
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            self._getters.popleft().trigger(item)
            return self._accepted
        if not self.full:
            self.items.append(item)
            return self._accepted
        evt = Event(self.sim, name=self._put_name)
        self._putters.append((evt, item))
        return evt

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full."""
        if self._getters:
            self._getters.popleft().trigger(item)
            return True
        if self.full:
            return False
        self.items.append(item)
        return True

    def get(self) -> Event:
        """Returns an event whose value is the next item."""
        evt = Event(self.sim, name=self._get_name)
        if self.items:
            item = self.items.popleft()
            evt.trigger(item)
            self._admit_putter()
        else:
            self._getters.append(evt)
        return evt

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking get; returns ``(ok, item_or_None)``."""
        if self.items:
            item = self.items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def peek_all(self) -> List[Any]:
        return list(self.items)

    def drain(self) -> List[Any]:
        """Remove and return every queued item (FIFO order).

        Blocked putters are admitted as space frees, exactly as if the
        drained items had been consumed one by one.
        """
        out: List[Any] = []
        while self.items:
            out.append(self.items.popleft())
            self._admit_putter()
        return out

    def _admit_putter(self) -> None:
        if self._putters and not self.full:
            evt, item = self._putters.popleft()
            self.items.append(item)
            evt.trigger(None)


class PriorityStore:
    """A store whose ``get`` returns the most urgent item first.

    Items are ``(priority, item)`` with lower priority values served first;
    equal priorities preserve FIFO order.  Used by the multi-user service
    daemon extension (paper §VIII): requests from fast-paced games preempt
    queued requests from turn-based ones.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name or "pstore"
        self._heap: List[Tuple[float, int, Any]] = []
        self._counter = 0
        self._getters: Deque[Event] = deque()
        self._get_name = f"{self.name}.get"

    def __len__(self) -> int:
        return len(self._heap)

    def put(self, item: Any, priority: float = 0.0) -> None:
        if self._getters:
            self._getters.popleft().trigger(item)
            return
        heapq.heappush(self._heap, (priority, self._counter, item))
        self._counter += 1

    def get(self) -> Event:
        evt = Event(self.sim, name=self._get_name)
        if self._heap:
            _prio, _seq, item = heapq.heappop(self._heap)
            evt.trigger(item)
        else:
            self._getters.append(evt)
        return evt

    def peek_all(self) -> List[Any]:
        return [item for _p, _s, item in sorted(self._heap)]

    def drain(self) -> List[Any]:
        """Remove and return every queued item, most urgent first."""
        out = [item for _p, _s, item in sorted(self._heap)]
        self._heap.clear()
        return out


class Resource:
    """A counted resource with FIFO acquisition (e.g. a GPU with one engine)."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        self.in_use = 0
        self._waiters: Deque[Event] = deque()
        self._acquire_name = f"{self.name}.acquire"

    def acquire(self) -> Event:
        evt = Event(self.sim, name=self._acquire_name)
        if self.in_use < self.capacity:
            self.in_use += 1
            evt.trigger(None)
        else:
            self._waiters.append(evt)
        return evt

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Hand the slot directly to the next waiter; in_use is unchanged.
            self._waiters.popleft().trigger(None)
        else:
            self.in_use -= 1

    def locked(self) -> Generator:
        """Generator helper: ``yield from resource.locked()`` acquires it."""
        yield self.acquire()


class Gauge:
    """A piecewise-constant quantity sampled over simulated time.

    Used for energy integration (power gauge) and utilization accounting.
    ``integral()`` returns the time integral of the gauge up to ``now``.
    """

    def __init__(self, sim: Simulator, initial: float = 0.0, name: str = ""):
        self.sim = sim
        self.name = name or "gauge"
        self.value = initial
        self._last_change = sim.now
        self._integral = 0.0
        self.history: List[Tuple[float, float]] = [(sim.now, initial)]

    def set(self, value: float) -> None:
        now = self.sim.now
        self._integral += self.value * (now - self._last_change)
        self._last_change = now
        if value != self.value:
            self.value = value
            self.history.append((now, value))

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def integral(self) -> float:
        """Time integral of the gauge from t=0 to now."""
        return self._integral + self.value * (self.sim.now - self._last_change)

    def mean(self) -> float:
        elapsed = self.sim.now - self.history[0][0]
        if elapsed <= 0:
            return self.value
        return self.integral() / elapsed
