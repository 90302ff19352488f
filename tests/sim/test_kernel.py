"""Kernel tests: the clock, callbacks, one-shot events, determinism."""

import pytest

from repro.sim.kernel import SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_simple_delay_advances_clock():
    sim = Simulator()
    log = []

    def second():
        log.append(sim.now)

    def first():
        log.append(sim.now)
        sim.call_later(2.5, second)

    sim.call_later(5.0, first)
    sim.run()
    assert log == [5.0, 7.5]


def test_zero_delay_yield_resumes_same_timestamp():
    """A zero-delay callback runs at the current time, after what is
    already due then."""
    sim = Simulator()
    log = []

    def step():
        sim.call_later(0.0, lambda: log.append(("hop", sim.now)))
        log.append(("step", sim.now))

    sim.call_later(3.0, step)
    sim.call_later(3.0, lambda: log.append(("due", sim.now)))
    sim.run()
    assert log == [("step", 3.0), ("due", 3.0), ("hop", 3.0)]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_later(-1.0, lambda: None)


def test_event_wakes_waiter_with_value():
    sim = Simulator()
    evt = sim.event("e")
    got = []
    evt.on_trigger(lambda: got.append((sim.now, evt.value)))
    sim.call_later(3.0, evt.trigger, "payload")
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

    def wait():
        evt.on_trigger(lambda: got.append((sim.now, evt.value)))

    sim.call_later(4.0, wait)
    sim.run()
    assert got == [(4.0, "early")]


def test_multiple_waiters_wake_in_fifo_order():
    sim = Simulator()
    evt = sim.event()
    order = []
    for tag in ("a", "b", "c"):
        evt.on_trigger(order.append, tag)
    sim.call_later(1.0, evt.trigger, None)
    sim.run()
    assert order == ["a", "b", "c"]


def test_kill_waiting_process_detaches_from_event():
    """Cancelling what waits on an event (its owner closing before the
    event fires) detaches it: it never runs and pins nothing."""
    sim = Simulator()
    evt = sim.event("never")
    resumed = []
    handle = evt.on_trigger(resumed.append, "woken")
    sim.call_later(5.0, evt.cancel_waiters)
    sim.call_later(6.0, evt.trigger)
    sim.run()
    assert not handle.alive and handle.fn is None
    assert evt._waiters == []
    assert resumed == []


def test_killed_timer_does_not_advance_clock():
    """A cancelled timer leaves a stale heap entry that must be skipped
    WITHOUT dragging the clock to its expiry time."""
    sim = Simulator()
    timer = sim.call_later(1_000.0, lambda: None)
    sim.call_later(5.0, timer.cancel)
    end = sim.run()
    assert end == 5.0
    assert sim.now == 5.0


def test_kill_is_idempotent_and_safe_when_done():
    """Cancelling a handle that already ran, or twice, is a no-op."""
    sim = Simulator()
    fired = []
    handle = sim.call_later(1.0, fired.append, "x")
    sim.run()
    handle.cancel()
    handle.cancel()
    assert fired == ["x"]
    assert not handle.alive


def test_run_until_limit_stops_clock():
    sim = Simulator()
    sim.every(10.0, lambda: None)
    sim.run(until=35.0)
    assert sim.now == 35.0


def test_run_until_event_stops_at_the_trigger():
    sim = Simulator()
    sim.every(1.0, lambda: None)
    done = sim.event("done")
    sim.call_later(12.0, done.trigger, "done")
    assert sim.run_until_event(done, limit=1000.0) == "done"
    assert sim.now == 12.0  # the periodic loop did not drag the clock on


def test_every_runs_after_a_start_hop_and_each_period():
    sim = Simulator()
    log = []
    sim.call_later(0.0, log.append, "before")
    sim.every(10.0, lambda tag: log.append((tag, sim.now)), "tick")
    sim.call_later(10.0, log.append, "due")
    sim.run(until=30.0)
    # The first tick is queued by the start hop, so it sorts behind an
    # entry scheduled for the same time before the hop ran.
    assert log == [
        "before", "due", ("tick", 10.0), ("tick", 20.0), ("tick", 30.0),
    ]


def test_call_at_runs_callable():
    sim = Simulator()
    log = []
    sim.call_at(7.0, lambda: log.append(sim.now))
    sim.run()
    assert log == [7.0]


def test_call_at_past_raises():
    sim = Simulator()
    sim.call_later(10.0, sim.call_at, 5.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.run()


def test_deterministic_event_ordering():
    """Two identical runs produce identical interleavings."""

    def run_once():
        sim = Simulator(seed=7)
        log = []

        def worker(tag, delay, left):
            log.append((sim.now, tag))
            if left:
                sim.call_later(delay, worker, tag, delay, left - 1)

        for tag in range(10):
            delay = 1.0 + (tag % 3)
            sim.call_later(delay, worker, tag, delay, 1)
        sim.run()
        return log

    assert run_once() == run_once()


def test_tie_break_is_spawn_order():
    """Loops started with a zero-time hop, the way the simulator's
    long-lived loops start, run in start order on a tie."""
    sim = Simulator()
    log = []
    for tag in range(5):
        sim.call_later(0.0, sim.call_later, 5.0, log.append, tag)
    sim.run()
    assert log == [0, 1, 2, 3, 4]


class TestCancellableTimeouts:
    """Regression test: a cancelled timer must not keep ``run`` alive
    (the transport's old RTO-timer leak class)."""

    def test_cancel_abandons_pending_timer(self):
        sim = Simulator()
        fired = []
        sim.call_later(5_000.0, fired.append, "late").cancel()
        end = sim.run()
        assert end == 0.0
        assert fired == []


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
    ], ids=[
        "run", "run_until", "run_until_event", "call_later", "call_at",
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
        sim.telemetry = sim.causal = sim.flight = object()
        sim.digests = object()
        sim.teardown()
        assert (sim.telemetry, sim.causal, sim.flight, sim.digests) == (
            (None,) * 4
        )

    def test_parked_callbacks_stay_with_their_event(self):
        """Teardown reaches only queued callbacks: what is parked on an
        event stays for the event's owner to cancel."""
        sim = Simulator()
        never = sim.event("never")
        handle = never.on_trigger(print, "x")
        sim.teardown()
        assert handle.alive and never._waiters == [handle]


class TestOnTeardown:
    """Components register what breaks their cycles; teardown runs it."""

    def test_breakers_run_once_in_registration_order(self):
        sim = Simulator()
        calls = []
        sim.on_teardown(calls.append, "first")
        sim.on_teardown(calls.append, "second")
        sim.on_teardown(calls.extend, ("third", "fourth"))
        sim.run()
        assert calls == []
        sim.teardown()
        assert calls == ["first", "second", "third", "fourth"]

    def test_breakers_run_after_the_queue_and_observers_are_gone(self):
        sim = Simulator()
        sim.telemetry = sim.causal = sim.flight = object()
        sim.digests = object()
        sim.call_later(5.0, print, "never")
        seen = []

        def breaker():
            seen.append((
                list(sim._queue), sim.torn_down,
                sim.telemetry, sim.causal, sim.flight, sim.digests,
            ))

        sim.on_teardown(breaker)
        sim.teardown()
        assert seen == [([], True, None, None, None, None)]

    def test_a_second_teardown_runs_nothing(self):
        sim = Simulator()
        calls = []
        sim.on_teardown(calls.append, "once")
        sim.teardown()
        assert sim._breakers == []
        sim.teardown()
        assert calls == ["once"]

    def test_call_later_still_raises(self):
        sim = Simulator()
        sim.on_teardown(lambda: None)
        sim.teardown()
        with pytest.raises(SimulationError, match="torn-down"):
            sim.call_later(1.0, print)


class TestReservedPlaces:
    """``reserve`` keeps the place ``call_later`` would take, and
    ``call_reserved`` queues there only while the run has not passed it."""

    @staticmethod
    def order_of(reserved: bool):
        """The log of a run in which ``r`` is scheduled 5 ms after t=0,
        with entries at that instant queued before and after it, and one
        queued at t=2 that also falls due at t=5.  ``r`` is either queued
        at once or reserved then and queued at t=1."""
        sim = Simulator()
        log = []

        def first():
            sim.call_later(5.0, log.append, "before")
            if reserved:
                place = sim.reserve(5.0)
                sim.call_later(1.0, lambda: log.append(
                    sim.call_reserved(place, log.append, "r")))
            else:
                sim.call_later(5.0, log.append, "r")
            sim.call_later(5.0, log.append, "after")
            sim.call_later(2.0, sim.call_at, 5.0, log.append, "late")

        sim.call_later(0.0, first)
        sim.run()
        return log

    def test_runs_where_call_later_would_have(self):
        assert self.order_of(reserved=False) == [
            "before", "r", "after", "late"]
        assert self.order_of(reserved=True) == [
            True, "before", "r", "after", "late"]

    @staticmethod
    def answer_at_the_same_instant(runner):
        """Two entries at t=10 call ``call_reserved`` on a place reserved
        at t=10 between them: the first is ahead of it, the second past."""
        sim = Simulator()
        log = []
        places = []

        def answer(name):
            ok = sim.call_reserved(places[0], log.append, "reserved")
            log.append((name, ok, len(sim._queue)))

        sim.call_later(10.0, answer, "ahead")
        places.append(sim.reserve(10.0))
        sim.call_later(10.0, answer, "past")
        runner(sim)
        return log

    @pytest.mark.parametrize("runner", [
        lambda sim: sim.run(),
        lambda sim: sim.run_until_event(sim.event("never"), limit=100.0),
    ], ids=["run", "run_until_event"])
    def test_a_same_instant_tie_is_decided_by_seq(self, runner):
        # "ahead" queues the reserved callback in front of "past"; "past"
        # then finds the place behind it and queues nothing more.
        assert self.answer_at_the_same_instant(runner) == [
            ("ahead", True, 2), "reserved", ("past", False, 0)]

    def test_a_refused_place_queues_nothing(self):
        sim = Simulator()
        place = sim.reserve(3.0)
        sim.call_later(4.0, lambda: None)
        sim.run(until=3.5)
        ran = []
        assert not sim.call_reserved(place, ran.append, "never")
        assert [entry[0] for entry in sim._queue] == [4.0]
        sim.run()
        assert ran == [] and sim.now == 4.0

    def test_a_place_takes_a_seq_as_call_later_does(self):
        sim = Simulator()
        sim.call_later(1.0, print)
        assert sim.reserve(1.0) == (1.0, 1)
        sim.call_later(1.0, print)
        assert [entry[1] for entry in sorted(sim._queue)] == [0, 2]

    @pytest.mark.parametrize("delay", [-1.0, float("nan")])
    def test_a_bad_delay_is_refused(self, delay):
        with pytest.raises(SimulationError, match="reserve with"):
            Simulator().reserve(delay)

    def test_torn_down_refuses_both(self):
        sim = Simulator()
        place = sim.reserve(1.0)
        sim.teardown()
        with pytest.raises(SimulationError, match="torn-down"):
            sim.call_reserved(place, print)
        with pytest.raises(SimulationError, match="torn-down"):
            sim.reserve(1.0)
        assert sim._queue == []
