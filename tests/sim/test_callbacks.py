"""Callback timers: ``call_later`` / ``call_at`` / ``Event.on_trigger``,
lazily created completion events, and NaN rejection at every entry point."""

import ast
import inspect
import math

import pytest

import repro.sim.kernel as kernel
from repro.check.invariants import InvariantMonitor
from repro.sim.kernel import Event, SimulationError, Simulator, TimerHandle


class TestOrdering:
    def test_same_timestamp_runs_in_scheduling_order(self, sim):
        log = []

        def sleeper(tag):
            yield 5.0
            log.append(tag)

        # Interleave: process sleeps take their place when they yield,
        # callbacks when they are scheduled.
        def driver():
            sim.call_later(5.0, log.append, "cb0")
            sim.spawn(sleeper("p0"))
            yield None  # p0 yields its sleep before the next line runs
            sim.call_later(5.0, log.append, "cb1")
            sim.spawn(sleeper("p1"))
            yield None
            sim.call_at(5.0, lambda: log.append("cb2"))

        sim.spawn(driver())
        sim.run()
        assert log == ["cb0", "p0", "cb1", "p1", "cb2"]

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

        def waiter(tag):
            yield evt
            log.append(tag)

        sim.spawn(waiter("p0"))
        sim.run()
        evt.on_trigger(log.append, "cb")
        sim.spawn(waiter("p1"))
        sim.call_later(2.0, evt.trigger, "v")
        sim.run()
        assert log == ["p0", "cb", "p1"]

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

    def test_externally_triggered_timeout_cancels_its_callback(self, sim):
        evt = sim.timeout(1_000.0, value="late")
        sim.call_later(2.0, evt.trigger, "early")
        assert sim.run() == 2.0
        assert evt.value == "early"
        assert not evt.timer.alive

    def test_timer_hygiene_flags_a_callback_outliving_its_trigger(self, sim):
        monitor = InvariantMonitor(sim, interval_ms=50.0)
        monitor.watch_timers()
        monitor.start()
        leaked = sim.timeout(10_000.0, name="leaky")
        # Trigger through the base class, skipping the cancellation that
        # TimerEvent.trigger performs: the callback outlives the trigger.
        sim.call_later(5.0, Event.trigger, leaked, None)
        sim.run(until=200.0)
        monitor.finalize()
        assert leaked.timer.alive
        laws = [v.invariant for v in monitor.violations]
        assert laws == ["sim.timer_hygiene"]
        assert monitor.violations[0].details["sample"] == "leaky"

    def test_timer_hygiene_clean_when_timeouts_are_satisfied(self, sim):
        monitor = InvariantMonitor(sim, interval_ms=50.0)
        monitor.watch_timers()
        monitor.start()
        evt = sim.timeout(10_000.0)
        sim.call_later(5.0, evt.trigger)
        sim.timeout(20.0)
        sim.run(until=200.0)
        assert monitor.finalize() == []

    def test_teardown_drops_pending_callbacks(self, sim):
        fired = []
        handle = sim.call_later(5.0, fired.append, "x")
        evt = sim.timeout(8.0)
        sim.teardown()
        assert not handle.alive and not evt.timer.alive
        assert sim._queue == []
        with pytest.raises(SimulationError):
            sim.run()
        assert fired == [] and not evt.triggered


class TestLazyDone:
    def test_done_created_after_finish_is_triggered_with_result(self, sim):
        def proc():
            yield 2.0
            return "result"

        p = sim.spawn(proc())
        sim.run()
        assert p._done is None  # nobody asked for it while it ran
        assert p.done.triggered and p.done.value == "result"
        assert p.result == "result"

    def test_done_created_while_running_fires_on_finish(self, sim):
        def proc():
            yield 2.0
            return 9

        p = sim.spawn(proc())
        done = p.done
        assert not done.triggered
        with pytest.raises(SimulationError):
            p.result
        sim.run()
        assert done.triggered and done.value == 9

    def test_killed_process_done_is_triggered_with_none(self, sim):
        def proc():
            yield 100.0
            return "never"

        p = sim.spawn(proc())
        sim.run(until=1.0)
        p.kill()
        assert p.done.triggered and p.done.value is None


class TestNaNRejected:
    """A NaN time would poison the clock and silence the "went backwards"
    check, since every comparison with NaN is false."""

    def test_yielded_nan_delay(self, sim):
        def proc():
            yield math.nan

        sim.spawn(proc())
        with pytest.raises(SimulationError, match="NaN"):
            sim.run()
        assert sim.now == 0.0

    def test_timeout_nan(self, sim):
        with pytest.raises(SimulationError, match="NaN"):
            sim.timeout(math.nan)

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
            sim.timeout(-1.0)

    def test_inf_is_still_accepted(self, sim):
        """Cost models return ``inf`` for "never"; that stays legal."""
        evt = sim.timeout(math.inf)
        handle = sim.call_later(math.inf, lambda: None)
        sim.run(until=100.0)
        assert not evt.triggered and handle.alive


def test_kernel_defines_exactly_one_step():
    """The bench attributes coroutine steps to the first function named
    ``_step`` in ``sim/kernel.py``; callback dispatch must not add another."""
    tree = ast.parse(inspect.getsource(kernel))
    steps = [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "_step"
    ]
    assert len(steps) == 1
