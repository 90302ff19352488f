"""Callback timers: ``call_later`` / ``call_at`` / ``Event.on_trigger``,
cancellation, and NaN rejection at every entry point."""

import ast
import inspect
import math

import pytest

import repro.sim.kernel as kernel
from repro.sim.kernel import SimulationError, TimerHandle


class TestOrdering:
    def test_same_timestamp_runs_in_scheduling_order(self, sim):
        log = []

        def chain(tag):
            sim.call_later(5.0, log.append, tag)

        # Interleave: a callback queued directly takes its place now; one
        # queued by a zero-time hop takes its place when the hop runs.
        def driver():
            sim.call_later(5.0, log.append, "cb0")
            sim.call_later(0.0, chain, "hop0")
            sim.call_later(0.0, step)

        def step():
            sim.call_later(5.0, log.append, "cb1")
            sim.call_later(0.0, chain, "hop1")
            sim.call_later(0.0, sim.call_at, 5.0, log.append, "cb2")

        sim.call_later(0.0, driver)
        sim.run()
        assert log == ["cb0", "hop0", "cb1", "hop1", "cb2"]

    def test_call_later_passes_args_and_returns_live_handle(self, sim):
        seen = []
        handle = sim.call_later(
            3.0, lambda a, b: seen.append((sim.now, a, b)), 1, "x"
        )
        assert isinstance(handle, TimerHandle) and handle.alive
        sim.run()
        assert seen == [(3.0, 1, "x")]
        assert not handle.alive

    def test_call_at_queues_at_the_literal_time(self, sim):
        """``call_at`` fires at ``when`` itself, not at ``now + (when -
        now)``, which rounds to a neighbouring float here."""
        now, when = 31158.449160657343, 218029.14379655969
        assert now + (when - now) != when
        seen = []
        sim.run(until=now)
        sim.call_at(when, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [when]

    def test_on_trigger_wakes_in_waiter_order(self, sim):
        evt = sim.event("e")
        log = []
        evt.on_trigger(log.append, "w0")
        sim.call_later(1.0, evt.on_trigger, log.append, "w1")
        sim.call_later(2.0, evt.trigger, "v")
        # Already queued for the trigger's instant, so it runs before the
        # parked callbacks, which are queued when the event fires.
        sim.call_later(2.0, log.append, "due")
        sim.run()
        assert log == ["due", "w0", "w1"]

    def test_on_trigger_after_trigger_runs_at_once(self, sim):
        evt = sim.event().trigger(7)
        seen = []
        evt.on_trigger(lambda: seen.append((sim.now, evt.value)))
        sim.run()
        assert seen == [(0.0, 7)]


class TestCancellation:
    def _cancelled(self, sim):
        fired = []
        handle = sim.call_later(50.0, fired.append, "late")
        handle.cancel()
        assert not handle.alive
        return fired

    def test_cancelled_callback_never_runs_under_run(self, sim):
        fired = self._cancelled(sim)
        assert sim.run() == 0.0
        assert fired == []

    def test_cancelled_callback_never_runs_under_run_until(self, sim):
        fired = self._cancelled(sim)
        sim.call_later(10.0, lambda: None)
        assert sim.run(until=30.0) == 30.0
        assert fired == []
        assert sim._queue == []

    def test_cancelled_callback_never_runs_under_run_until_event(self, sim):
        fired = self._cancelled(sim)
        never = sim.event("never")
        assert sim.run_until_event(never) is None
        assert sim.now == 0.0
        assert fired == []

    def test_cancelled_on_trigger_callback_is_dropped(self, sim):
        evt = sim.event()
        fired = []
        evt.on_trigger(fired.append, 1).cancel()
        sim.call_later(4.0, evt.trigger)
        sim.run()
        assert fired == [] and sim.now == 4.0

    def test_teardown_drops_pending_callbacks(self, sim):
        fired = []
        handle = sim.call_later(5.0, fired.append, "x")
        evt = sim.event()
        hop = sim.call_later(0.0, evt.trigger)
        sim.teardown()
        assert not handle.alive and not hop.alive
        assert handle.fn is None and handle.args == ()
        assert sim._queue == []
        with pytest.raises(SimulationError):
            sim.run()
        assert fired == [] and not evt.triggered


class TestNaNRejected:
    """A NaN time would poison the clock and silence the "went backwards"
    check, since every comparison with NaN is false."""

    def test_call_at_nan(self, sim):
        with pytest.raises(SimulationError, match="NaN"):
            sim.call_at(math.nan, lambda: None)

    def test_call_later_nan(self, sim):
        with pytest.raises(SimulationError, match="NaN"):
            sim.call_later(math.nan, lambda: None)

    def test_run_until_nan(self, sim):
        with pytest.raises(SimulationError, match="NaN"):
            sim.run(until=math.nan)

    def test_run_until_event_limit_nan(self, sim):
        with pytest.raises(SimulationError, match="NaN"):
            sim.run_until_event(sim.event(), limit=math.nan)

    def test_negative_delays_still_rejected(self, sim):
        with pytest.raises(SimulationError, match="negative"):
            sim.call_later(-1.0, lambda: None)
        with pytest.raises(SimulationError, match="negative"):
            sim.every(-1.0, lambda: None)
            sim.run()

    def test_inf_is_still_accepted(self, sim):
        """Cost models return ``inf`` for "never"; that stays legal."""
        handle = sim.call_later(math.inf, lambda: None)
        sim.run(until=100.0)
        assert handle.alive and sim.now == 100.0


def test_kernel_defines_no_process_or_spawn():
    """Every action is a callback: the kernel defines no coroutine
    machinery (a ``Process`` class, ``spawn``, ``timeout``, ``all_of``,
    a ``_step`` resumption) and nothing in it is a generator."""
    tree = ast.parse(inspect.getsource(kernel))
    names = {
        node.name for node in ast.walk(tree)
        if isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        )
    }
    gone = {
        "Process", "CompositeEvent", "TimerEvent", "spawn", "timeout",
        "all_of", "run_until_process", "_step",
    }
    assert names & gone == set()
    assert not any(
        isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(tree)
    )
