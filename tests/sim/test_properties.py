"""Property-based tests on kernel primitives."""

from hypothesis import given, settings, strategies as st

from repro.net.interface import BLUETOOTH_CLASSIC, WirelessInterface
from repro.net.message import Message
from repro.sim.kernel import Simulator
from repro.sim.resources import Gauge
from tests.coroutines import spawn


class _Sink:
    def __init__(self):
        self.received = []

    def deliver(self, message, via=None):
        self.received.append(message)


@settings(max_examples=50, deadline=None)
@given(
    sends=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=50_000),     # bytes
            st.floats(min_value=0.0, max_value=20.0),       # gap before
        ),
        min_size=1,
        max_size=30,
    )
)
def test_radio_preserves_fifo_for_any_sequence(sends):
    """Whatever the sizes and arrival gaps, a radio sends in arrival
    order, one message on air at a time."""
    sim = Simulator()
    radio = WirelessInterface(sim, BLUETOOTH_CLASSIC)
    sink = _Sink()
    radio.attach_link(sink)
    messages = [Message.of_size(size) for size, _gap in sends]

    def sender():
        for message, (_size, gap) in zip(messages, sends):
            yield gap
            radio.send(message)

    spawn(sim, sender())
    sim.run()
    assert sink.received == messages
    ends = [t for t, _wire in radio.tx_log]
    for (end, wire), later in zip(radio.tx_log[1:], ends):
        # Each transmission starts no earlier than the previous ended.
        assert end - BLUETOOTH_CLASSIC.tx_time_ms(wire) >= later - 1e-9


@settings(max_examples=50, deadline=None)
@given(
    segments=st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=100.0),   # duration
            st.floats(min_value=-10.0, max_value=10.0),  # value
        ),
        min_size=1,
        max_size=20,
    )
)
def test_gauge_integral_equals_sum_of_segments(segments):
    sim = Simulator()
    gauge = Gauge(sim, initial=0.0)

    def proc():
        for duration, value in segments:
            gauge.set(value)
            yield duration

    spawn(sim, proc())
    sim.run()
    expected = sum(duration * value for duration, value in segments)
    assert abs(gauge.integral() - expected) < 1e-6


@settings(max_examples=30, deadline=None)
@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=30
    )
)
def test_events_fire_in_time_order(delays):
    sim = Simulator()
    fired = []

    def waiter(delay):
        yield delay
        fired.append(sim.now)

    for delay in delays:
        spawn(sim, waiter(delay))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@settings(max_examples=30, deadline=None)
@given(
    fps=st.floats(min_value=5.0, max_value=60.0),
    seconds=st.integers(min_value=3, max_value=30),
)
def test_fps_timeline_recovers_constant_rate(fps, seconds):
    from repro.metrics.fps import fps_timeline

    interval = 1000.0 / fps
    times = [i * interval for i in range(int(seconds * fps))]
    series = fps_timeline(times)
    # Interior buckets within one frame of the true rate.
    for value in series[1:-1]:
        assert abs(value - fps) <= fps * 0.2 + 1.5
