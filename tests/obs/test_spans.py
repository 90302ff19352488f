"""SpanRecorder: nesting, marks, the bounded ring, and clock wiring."""

import pickle

import pytest

from repro.metrics.spans import aggregate_spans

from repro.obs.spans import Span, SpanRecorder
from repro.sim.kernel import Simulator
from tests.coroutines import spawn


def make_recorder():
    clock = {"now": 0.0}
    rec = SpanRecorder(clock=lambda: clock["now"])
    return rec, clock


class TestNesting:
    def test_child_inherits_parent_name_and_depth(self):
        rec, clock = make_recorder()
        root = rec.begin("frame", "frame", track="engine", frame_id=7)
        clock["now"] = 1.0
        child = rec.begin("app", "intercept", frame_id=7, parent=root)
        clock["now"] = 3.0
        sealed = child.end()
        assert sealed.parent == "frame.frame"
        assert sealed.depth == 1
        assert sealed.frame_id == 7
        assert sealed.duration_ms == pytest.approx(2.0)
        clock["now"] = 5.0
        sealed_root = root.end()
        assert sealed_root.parent is None
        assert sealed_root.depth == 0
        assert sealed_root.duration_ms == pytest.approx(5.0)

    def test_grandchild_depth_chains(self):
        rec, clock = make_recorder()
        a = rec.begin("frame", "frame")
        b = rec.begin("app", "intercept", parent=a)
        c = rec.begin("codec", "encode", parent=b)
        assert c.end().depth == 2
        assert c.qualified_name == "codec.encode"

    def test_double_end_records_once(self):
        rec, clock = make_recorder()
        handle = rec.begin("app", "intercept")
        clock["now"] = 2.0
        first = handle.end()
        second = handle.end()
        assert first is not None
        assert second is None
        assert len(rec) == 1

    def test_end_merges_args(self):
        rec, clock = make_recorder()
        handle = rec.begin("frame", "frame", node="shield")
        sealed = handle.end(response_ms=12.5)
        assert sealed.args == {"node": "shield", "response_ms": 12.5}


class TestMarksAndAdd:
    def test_mark_is_instant_at_clock(self):
        rec, clock = make_recorder()
        clock["now"] = 4.5
        mark = rec.mark("dispatch", "assign", track="client", node="n0")
        assert mark.instant
        assert mark.start_ms == mark.end_ms == 4.5
        assert mark.args == {"node": "n0"}

    def test_add_clamps_inverted_interval(self):
        rec = SpanRecorder()
        span = rec.add("net", "transmit", 10.0, 7.0)
        assert span.start_ms == 7.0
        assert span.duration_ms == 0.0
        assert not span.instant

    def test_queries(self):
        rec = SpanRecorder()
        rec.add("net", "transmit", 0.0, 1.0)
        rec.add("net", "return", 2.0, 3.0)
        rec.add("server", "execute", 1.0, 2.0)
        assert len(rec.by_category("net")) == 2
        assert len(rec.by_name("execute")) == 1
        assert rec.categories() == ["net", "server"]
        assert rec.stage_names() == ["execute", "return", "transmit"]


class TestRing:
    def test_eviction_keeps_newest_and_counts_dropped(self):
        rec = SpanRecorder(capacity=3)
        for i in range(5):
            rec.add("net", "transmit", float(i), float(i) + 0.5, seq=i)
        assert len(rec) == 3
        assert rec.dropped == 2
        assert [s.args["seq"] for s in rec.spans] == [2, 3, 4]

    def test_clear_resets(self):
        rec = SpanRecorder(capacity=1)
        rec.add("a", "x", 0.0, 1.0)
        rec.add("a", "y", 1.0, 2.0)
        rec.clear()
        assert len(rec) == 0
        assert rec.dropped == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SpanRecorder(capacity=0)


def test_simulator_spans_follow_sim_clock():
    sim = Simulator(seed=0)
    sealed = []

    def proc():
        handle = sim.spans.begin("app", "intercept", track="engine")
        yield 4.0
        sealed.append(handle.end())

    spawn(sim, proc())
    sim.run()
    assert sealed[0].start_ms == pytest.approx(0.0)
    assert sealed[0].duration_ms == pytest.approx(4.0)


class TestOpenSpanEdgeCases:
    def clock(self):
        state = {"now": 0.0}
        rec = SpanRecorder(clock=lambda: state["now"])
        return rec, state

    def test_double_end_records_once(self):
        rec, state = self.clock()
        handle = rec.begin("app", "stage")
        state["now"] = 5.0
        first = handle.end()
        second = handle.end(extra="ignored")
        assert first is not None and second is None
        assert len(rec) == 1
        assert rec.spans[0].duration_ms == pytest.approx(5.0)
        assert "extra" not in rec.spans[0].args

    def test_end_args_merge_over_begin_args(self):
        rec, state = self.clock()
        handle = rec.begin("app", "stage", a=1, b=2)
        state["now"] = 1.0
        span = handle.end(b=3, c=4)
        assert span.args == {"a": 1, "b": 3, "c": 4}

    def test_out_of_order_end_clamps_to_zero_duration(self):
        """end(at_ms) before the recorded start must not produce a
        negative-duration span (the Chrome exporter rejects those)."""
        rec, state = self.clock()
        state["now"] = 10.0
        handle = rec.begin("app", "stage")
        span = handle.end(at_ms=4.0)
        assert span.start_ms == 4.0
        assert span.end_ms == 4.0
        assert span.duration_ms == 0.0

    def test_explicit_end_timestamp_overrides_clock(self):
        rec, state = self.clock()
        handle = rec.begin("app", "stage")
        state["now"] = 100.0
        span = handle.end(at_ms=7.5)
        assert span.end_ms == 7.5

    def test_clear_with_open_spans_keeps_handles_usable(self):
        """clear() mid-session: an open handle sealed afterwards lands in
        the fresh ring instead of crashing or resurrecting old spans."""
        rec, state = self.clock()
        handle = rec.begin("app", "stage")
        rec.add("app", "done", 0.0, 1.0)
        rec.clear()
        assert len(rec) == 0
        state["now"] = 3.0
        span = handle.end()
        assert span is not None
        assert len(rec) == 1
        assert rec.spans[0].name == "stage"

    def test_mark_after_clear_records_fresh(self):
        rec, state = self.clock()
        rec.mark("a", "x")
        rec.clear()
        state["now"] = 2.0
        span = rec.mark("a", "y")
        assert span.instant and span.start_ms == 2.0
        assert [s.name for s in rec.spans] == ["y"]


class TestSpanRecord:
    """A span is an immutable tuple that still reads like the old record."""

    def test_fields_cannot_be_assigned(self):
        span = SpanRecorder().add("net", "transmit", 0.0, 1.0)
        with pytest.raises(AttributeError):
            span.end_ms = 5.0

    def test_default_args_are_not_shared(self):
        a = Span("net", "transmit", 0.0, 1.0)
        b = Span("net", "transmit", 0.0, 1.0)
        assert a.args == {} and a.args is not b.args

    def test_repr_matches_the_record_it_replaced(self):
        assert repr(Span("net", "transmit", 0.0, 3.0)) == (
            "Span(category='net', name='transmit', start_ms=0.0, "
            "end_ms=3.0, track='main', frame_id=None, parent=None, "
            "depth=0, instant=False, args={})"
        )

    def test_pickle_round_trip(self):
        rec = SpanRecorder()
        root = rec.begin("frame", "frame", frame_id=3)
        child = rec.begin("app", "intercept", frame_id=3, parent=root)
        spans = [child.end(at_ms=2.0, node="n0"), root.end(at_ms=4.0)]
        for span in spans:
            back = pickle.loads(pickle.dumps(span))
            assert type(back) is Span
            assert back == span
            assert back.qualified_name == span.qualified_name

    def test_aggregate_by_qualified_name(self):
        rec = SpanRecorder()
        rec.add("net", "transmit", 0.0, 2.0)
        rec.add("net", "transmit", 0.0, 4.0)
        rec.add("fleet.net", "transmit", 0.0, 1.0)
        rec.mark("net", "transmit")
        groups = aggregate_spans(rec, by="qualified_name")
        assert sorted(groups) == ["fleet.net.transmit", "net.transmit"]
        assert groups["net.transmit"]["count"] == 2
        assert groups["net.transmit"]["total_ms"] == 6.0
        assert groups["fleet.net.transmit"]["count"] == 1
