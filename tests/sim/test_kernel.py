"""Kernel tests: events, processes, composite waits, determinism."""

import pytest

from repro.sim.kernel import Event, Interrupt, SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_simple_delay_advances_clock():
    sim = Simulator()
    log = []

    def proc():
        yield 5.0
        log.append(sim.now)
        yield 2.5
        log.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert log == [5.0, 7.5]


def test_zero_delay_yield_resumes_same_timestamp():
    sim = Simulator()
    log = []

    def proc():
        yield None
        log.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert log == [0.0]


def test_negative_delay_rejected():
    sim = Simulator()

    def proc():
        yield -1.0

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_event_wakes_waiter_with_value():
    sim = Simulator()
    evt = sim.event("e")
    got = []

    def waiter():
        value = yield evt
        got.append((sim.now, value))

    def trigger():
        yield 3.0
        evt.trigger("payload")

    sim.spawn(waiter())
    sim.spawn(trigger())
    sim.run()
    assert got == [(3.0, "payload")]


def test_event_triggered_twice_raises():
    sim = Simulator()
    evt = sim.event()
    evt.trigger(1)
    with pytest.raises(SimulationError):
        evt.trigger(2)


def test_waiting_on_already_triggered_event_resumes_immediately():
    sim = Simulator()
    evt = sim.event()
    evt.trigger("early")
    got = []

    def waiter():
        yield 4.0
        value = yield evt
        got.append((sim.now, value))

    sim.spawn(waiter())
    sim.run()
    assert got == [(4.0, "early")]


def test_multiple_waiters_wake_in_fifo_order():
    sim = Simulator()
    evt = sim.event()
    order = []

    def waiter(tag):
        yield evt
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.spawn(waiter(tag))

    def trigger():
        yield 1.0
        evt.trigger(None)

    sim.spawn(trigger())
    sim.run()
    assert order == ["a", "b", "c"]


def test_process_return_value_propagates():
    sim = Simulator()

    def child():
        yield 2.0
        return 42

    def parent():
        result = yield sim.spawn(child())
        return result * 2

    proc = sim.spawn(parent())
    sim.run()
    assert proc.result == 84


def test_result_before_completion_raises():
    sim = Simulator()

    def proc():
        yield 1.0

    p = sim.spawn(proc())
    with pytest.raises(SimulationError):
        _ = p.result


def test_timeout_event():
    sim = Simulator()
    evt = sim.timeout(10.0, value="done")
    got = []

    def waiter():
        value = yield evt
        got.append((sim.now, value))

    sim.spawn(waiter())
    sim.run()
    assert got == [(10.0, "done")]


def test_any_of_returns_first_winner():
    sim = Simulator()
    slow = sim.timeout(10.0, value="slow")
    fast = sim.timeout(4.0, value="fast")
    combined = sim.any_of([slow, fast])
    got = []

    def waiter():
        value = yield combined
        got.append((sim.now, value))

    sim.spawn(waiter())
    sim.run()
    assert got == [(4.0, (1, "fast"))]


def test_all_of_waits_for_every_event():
    sim = Simulator()
    events = [sim.timeout(t, value=t) for t in (3.0, 9.0, 6.0)]
    combined = sim.all_of(events)
    got = []

    def waiter():
        values = yield combined
        got.append((sim.now, values))

    sim.spawn(waiter())
    sim.run()
    assert got == [(9.0, [3.0, 9.0, 6.0])]


def test_all_of_empty_triggers_immediately():
    sim = Simulator()
    combined = sim.all_of([])
    assert combined.triggered
    assert combined.value == []


def test_interrupt_raises_in_waiting_process():
    sim = Simulator()
    caught = []

    def sleeper():
        try:
            yield 100.0
        except Interrupt as exc:
            caught.append((sim.now, exc.cause))

    proc = sim.spawn(sleeper())

    def interrupter():
        yield 5.0
        proc.interrupt("stop")

    sim.spawn(interrupter())
    sim.run()
    assert caught == [(5.0, "stop")]


def test_interrupt_dead_process_is_noop():
    sim = Simulator()

    def quick():
        yield 1.0

    proc = sim.spawn(quick())
    sim.run()
    proc.interrupt("late")  # must not raise
    assert not proc.alive


def test_kill_waiting_process_detaches_from_event():
    sim = Simulator()
    evt = sim.event("never")
    resumed = []

    def waiter():
        yield evt
        resumed.append(sim.now)

    proc = sim.spawn(waiter())

    def killer():
        yield 5.0
        proc.kill()

    sim.spawn(killer())
    sim.run()
    assert not proc.alive
    assert proc.done.triggered
    assert evt._waiters == []
    assert resumed == []


def test_killed_timer_does_not_advance_clock():
    """A cancelled delay leaves a stale heap entry that must be skipped
    WITHOUT dragging the clock to its expiry time."""
    sim = Simulator()

    def timer():
        yield 1_000.0

    proc = sim.spawn(timer())

    def killer():
        yield 5.0
        proc.kill()

    sim.spawn(killer())
    end = sim.run()
    assert end == 5.0
    assert sim.now == 5.0


def test_kill_is_idempotent_and_safe_when_done():
    sim = Simulator()

    def quick():
        yield 1.0

    proc = sim.spawn(quick())
    sim.run()
    proc.kill()  # already finished: must be a no-op
    proc.kill()
    assert not proc.alive


def test_any_of_cleans_up_loser_watchers():
    """The losing watchers must not wait forever on events that never fire."""
    sim = Simulator()
    never = sim.event("never")
    fast = sim.timeout(4.0, value="fast")
    combined = sim.any_of([never, fast])
    sim.run()
    assert combined.triggered
    assert combined.value == (1, "fast")
    # The watcher parked on the never-firing event has been torn down.
    assert never._waiters == []
    assert not any(
        p.alive and p.name.startswith("_anyof.") for p in sim._processes
    )


def test_run_until_limit_stops_clock():
    sim = Simulator()

    def forever():
        while True:
            yield 10.0

    sim.spawn(forever())
    sim.run(until=35.0)
    assert sim.now == 35.0


def test_run_until_process_stops_at_completion():
    sim = Simulator()

    def background():
        while True:
            yield 1.0

    def main():
        yield 12.0
        return "done"

    sim.spawn(background())
    proc = sim.spawn(main())
    result = sim.run_until_process(proc, limit=1000.0)
    assert result == "done"
    assert sim.now == 12.0  # background did not drag the clock further


def test_call_at_runs_callable():
    sim = Simulator()
    log = []
    sim.call_at(7.0, lambda: log.append(sim.now))
    sim.run()
    assert log == [7.0]


def test_call_at_past_raises():
    sim = Simulator()

    def proc():
        yield 10.0
        sim.call_at(5.0, lambda: None)

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_yielding_garbage_raises():
    sim = Simulator()

    def proc():
        yield "nonsense"

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_deterministic_event_ordering():
    """Two identical runs produce identical interleavings."""

    def run_once():
        sim = Simulator(seed=7)
        log = []

        def worker(tag, delay):
            yield delay
            log.append((sim.now, tag))
            yield delay
            log.append((sim.now, tag))

        for tag in range(10):
            sim.spawn(worker(tag, 1.0 + (tag % 3)))
        sim.run()
        return log

    assert run_once() == run_once()


def test_tie_break_is_spawn_order():
    sim = Simulator()
    log = []

    def worker(tag):
        yield 5.0
        log.append(tag)

    for tag in range(5):
        sim.spawn(worker(tag))
    sim.run()
    assert log == [0, 1, 2, 3, 4]


class TestCancellableTimeouts:
    """Regression tests: timeouts must not keep ``run`` alive after they
    have served their purpose (the transport's old RTO-timer leak class)."""

    def test_externally_triggered_timeout_drains_immediately(self):
        sim = Simulator()
        ack = sim.timeout(10_000.0, name="rto")

        def transport():
            yield 3.0
            ack.trigger("acked")       # data arrived; RTO is now moot

        def waiter():
            value = yield ack
            assert value == "acked"

        sim.spawn(transport())
        sim.spawn(waiter())
        end = sim.run()
        # Pre-fix, the backing _timer slept out the full 10 s delay.
        assert end == pytest.approx(3.0)
        assert not ack.timer.alive

    def test_cancel_abandons_pending_timer(self):
        sim = Simulator()
        evt = sim.timeout(5_000.0)
        evt.cancel()
        end = sim.run()
        assert end == 0.0
        assert not evt.triggered

    def test_self_fired_timeout_still_works(self):
        sim = Simulator()
        log = []

        def proc():
            value = yield sim.timeout(7.0, value="tick")
            log.append((sim.now, value))

        sim.spawn(proc())
        sim.run()
        assert log == [(7.0, "tick")]

    def test_any_of_reaps_losing_timeout(self):
        sim = Simulator()
        log = []

        def proc():
            winner = sim.timeout(5.0, value="fast")
            loser = sim.timeout(60_000.0, value="slow")
            idx, value = yield sim.any_of([winner, loser])
            log.append((sim.now, idx, value))

        sim.spawn(proc())
        end = sim.run()
        assert log == [(5.0, 0, "fast")]
        # Pre-fix, the losing timer kept the queue busy for a minute.
        assert end == pytest.approx(5.0)

    def test_any_of_keeps_timeout_someone_else_awaits(self):
        sim = Simulator()
        log = []
        shared = sim.timeout(50.0, value="shared")

        def racer():
            yield sim.any_of([sim.timeout(5.0), shared])
            log.append(("race", sim.now))

        def other():
            yield shared
            log.append(("other", sim.now))

        sim.spawn(racer())
        sim.spawn(other())
        end = sim.run()
        assert ("race", 5.0) in log
        assert ("other", 50.0) in log
        assert end == pytest.approx(50.0)

    def test_no_residual_timer_processes_after_run(self):
        sim = Simulator()
        timers = []

        def proc():
            evt = sim.timeout(30_000.0)
            timers.append(evt.timer)
            sim.call_at(2.0, lambda: evt.trigger())
            yield evt

        sim.spawn(proc())
        assert sim.run() == 2.0
        assert [t.alive for t in timers] == [False]


class TestSpuriousWakeups:
    """Regression tests: interrupting a process that sleeps on a plain
    ``yield delay`` used to leave the original delayed resumption in the
    queue, waking the process a second time with a spurious ``None``."""

    def test_interrupt_delay_sleep_resumes_exactly_once(self):
        sim = Simulator()
        never = sim.event("never")
        resumes = []

        def sleeper():
            try:
                yield 100.0
                resumes.append(("timeout", sim.now))
            except Interrupt as exc:
                resumes.append(("interrupt", sim.now, exc.cause))
            # Park forever: a stale resumption would wake this yield with
            # a spurious None instead of the event's value.
            value = yield never
            resumes.append(("spurious", sim.now, value))

        proc = sim.spawn(sleeper())

        def poker():
            yield 5.0
            proc.interrupt("stop")

        sim.spawn(poker())
        end = sim.run()
        assert resumes == [("interrupt", 5.0, "stop")]
        # The stale entry must neither wake anyone nor drag the clock to
        # the old wake time.
        assert end == 5.0

    def test_interrupted_then_resleeping_process_keeps_clean_timeline(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield 50.0
            except Interrupt:
                pass
            yield 10.0  # a fresh sleep after the interrupt
            log.append(sim.now)

        proc = sim.spawn(sleeper())
        sim.call_at(5.0, lambda: proc.interrupt())
        sim.run()
        # Pre-fix the stale 50 ms resumption fired mid-second-sleep.
        assert log == [15.0]

    def test_back_to_back_interrupts_deliver_each_once(self):
        sim = Simulator()
        causes = []

        def sleeper():
            while True:
                try:
                    yield 1_000.0
                except Interrupt as exc:
                    causes.append((sim.now, exc.cause))
                    if exc.cause == "second":
                        return

        proc = sim.spawn(sleeper())
        sim.call_at(2.0, lambda: proc.interrupt("first"))
        sim.call_at(4.0, lambda: proc.interrupt("second"))
        end = sim.run()
        assert causes == [(2.0, "first"), (4.0, "second")]
        assert end == 4.0


class TestAllOfReaping:
    """Regression tests: ``all_of`` watchers must be reapable when one of
    the source events never triggers (the leak ``any_of`` already fixed)."""

    def _alive_watchers(self, sim):
        return [
            p for p in sim._processes
            if p.alive and p.name.startswith("_allof.")
        ]

    def test_abandon_reaps_watchers_and_waiter_lists(self):
        sim = Simulator()
        never = sim.event("never")
        fast = sim.timeout(1.0, value="fast")
        combined = sim.all_of([fast, never], name="stuck")
        sim.run()
        assert not combined.triggered
        assert len(self._alive_watchers(sim)) == 1  # parked on `never`
        combined.abandon()
        assert never._waiters == []
        assert self._alive_watchers(sim) == []

    def test_abandon_reaps_orphaned_pending_timeout(self):
        sim = Simulator()
        never = sim.event("never")

        def proc():
            yield 1.0

        sim.spawn(proc())
        combined = sim.all_of([sim.timeout(60_000.0), never])
        combined.abandon()
        end = sim.run()
        # The orphaned 60 s timer was cancelled with its watcher, so the
        # run drains at the last real event.
        assert end == 1.0

    def test_teardown_reaps_pending_all_of_watchers(self):
        sim = Simulator()
        never = sim.event("never")
        other = sim.event("other")
        sim.all_of([never, other], name="leaky")
        sim.run()
        assert len(self._alive_watchers(sim)) == 2
        sim.teardown()
        assert never._waiters == []
        assert other._waiters == []
        assert not any(p.alive for p in sim._processes)
        assert sim._queue == []

    def test_completed_all_of_unaffected_by_teardown(self):
        sim = Simulator()
        events = [sim.timeout(t, value=t) for t in (1.0, 2.0)]
        combined = sim.all_of(events)
        sim.run()
        assert combined.triggered
        assert combined.value == [1.0, 2.0]
        sim.teardown()
        assert combined.value == [1.0, 2.0]

    def test_any_of_composite_abandon_also_reaps(self):
        sim = Simulator()
        never_a = sim.event("never_a")
        never_b = sim.event("never_b")
        combined = sim.any_of([never_a, never_b], name="undecided")
        sim.run()
        combined.abandon()
        assert never_a._waiters == []
        assert never_b._waiters == []


class TestTornDown:
    """A torn-down simulator keeps what it recorded but cannot run again."""

    @staticmethod
    def torn_down() -> Simulator:
        sim = Simulator()
        sim.call_later(3.0, lambda: sim.spans.mark("test", "tick"))
        sim.run()
        sim.teardown()
        return sim

    @pytest.mark.parametrize("entry", [
        lambda sim: sim.run(),
        lambda sim: sim.run(until=10.0),
        lambda sim: sim.run_until_event(sim.event("never")),
        lambda sim: sim.call_later(1.0, print),
        lambda sim: sim.call_at(5.0, print),
        lambda sim: sim.spawn(iter(())),
        lambda sim: sim.timeout(1.0),
    ], ids=[
        "run", "run_until", "run_until_event", "call_later", "call_at",
        "spawn", "timeout",
    ])
    def test_every_entry_raises(self, entry):
        sim = self.torn_down()
        with pytest.raises(SimulationError, match="torn-down"):
            entry(sim)
        assert sim._queue == []

    def test_recorded_spans_stay_readable_on_a_pinned_clock(self):
        sim = self.torn_down()
        assert [s.name for s in sim.spans.spans] == ["tick"]
        assert sim.spans.mark("test", "late").start_ms == 3.0

    def test_teardown_detaches_the_observers(self):
        sim = Simulator()
        sim.telemetry = sim.monitor = sim.causal = sim.flight = object()
        sim.digests = object()
        sim.teardown()
        assert (sim.telemetry, sim.monitor, sim.causal, sim.flight,
                sim.digests) == (None,) * 5
