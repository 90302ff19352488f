"""A test-local driver for generator loops on the callback-only kernel.

The kernel runs callbacks only.  A test that keeps a loop as a generator
(a reference implementation the callbacks replaced, or a scripted
scenario) runs it with :func:`spawn`, which steps it with ``call_later``
and ``Event.on_trigger``:

* a yielded number sleeps that many milliseconds;
* a yielded :class:`~repro.sim.kernel.Event` waits for it, and the
  generator resumes with the event's value;
* a yielded ``None`` resumes at the current time, behind what is due now;
* the first step runs after a zero-time hop.

Each step takes the queue position a step of the kernel's former
processes took, so a reference loop replays them exactly.
"""

from __future__ import annotations

from typing import Generator

from repro.sim.kernel import Event, Simulator


def spawn(sim: Simulator, gen: Generator) -> Event:
    """Run ``gen`` on ``sim``; the event fires with its return value."""
    done = sim.event()

    def step(value: object = None) -> None:
        try:
            target = gen.send(value)
        except StopIteration as stop:
            done.trigger(stop.value)
            return
        if isinstance(target, Event):
            target.on_trigger(resume, target)
        else:
            sim.call_later(0.0 if target is None else target, step)

    def resume(event: Event) -> None:
        step(event.value)

    sim.call_later(0.0, step)
    return done
