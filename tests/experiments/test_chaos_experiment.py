"""Chaos experiment: short smoke runs of the fault-injection sweep."""

import pytest

from repro.experiments.chaos import (
    build_schedule,
    format_points,
    run_chaos_point,
    run_chaos_sweep,
)
from repro.net.transport import Transport
from repro.sim.kernel import Simulator

SHORT = 15_000.0


@pytest.mark.slow
class TestChaosPoint:
    def test_crash_point_survives_with_failovers(self):
        point = run_chaos_point(
            loss_probability=0.0, outage_ms=0.0, crash=True,
            duration_ms=SHORT,
        )
        assert point.survived
        assert point.frames_lost == 0
        assert point.nodes_failed == 1
        assert point.failovers > 0
        assert point.median_fps > 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_lossy_point_retransmits(self, seed):
        """Pure loss never condemns the node: a message lost five times
        waits out more than the frame watchdog in RTO backoff, but the
        node keeps answering, so the watchdog waits instead."""
        point = run_chaos_point(
            loss_probability=0.3, outage_ms=0.0, crash=False,
            duration_ms=SHORT, seed=seed,
        )
        assert point.survived
        assert point.retransmissions > 0
        assert point.nodes_failed == 0

    def test_baseline_point_is_clean(self):
        point = run_chaos_point(
            loss_probability=0.0, outage_ms=0.0, crash=False,
            duration_ms=SHORT,
        )
        assert point.survived
        assert point.failovers == 0
        assert point.nodes_failed == 0


@pytest.mark.slow
class TestChaosSweep:
    def test_small_sweep_all_survive(self):
        points = run_chaos_sweep(
            loss_levels=(0.0, 0.3),
            outage_levels_ms=(0.0,),
            crash=True,
            duration_ms=SHORT,
        )
        assert len(points) == 2
        assert all(p.survived for p in points)
        text = format_points(points)
        assert "zero lost frames" in text


def test_retransmissions_are_counted_past_a_wrapped_ring(monkeypatch):
    """The bounded span ring forgets old retransmit marks; the count
    must not."""
    sims, transports = [], []
    sim_init, transport_init = Simulator.__init__, Transport.__init__

    def small_ring(self, *args, **kwargs):
        sim_init(self, *args, **kwargs)
        self.spans.capacity = 64
        sims.append(self)

    def collect(self, *args, **kwargs):
        transport_init(self, *args, **kwargs)
        transports.append(self)

    monkeypatch.setattr(Simulator, "__init__", small_ring)
    monkeypatch.setattr(Transport, "__init__", collect)
    point = run_chaos_point(
        loss_probability=0.3, outage_ms=0.0, crash=False,
        duration_ms=4_000.0,
    )
    (sim,) = sims
    total = sum(t.stats.retransmissions for t in transports)
    assert sim.spans.dropped > 0
    assert len(sim.spans.by_name("retransmit")) < total
    assert point.retransmissions == total


def test_build_schedule_composes_requested_faults():
    schedule = build_schedule(
        loss_probability=0.3, outage_ms=1_000.0, crash=True,
        duration_ms=30_000.0,
    )
    kinds = {type(e).__name__ for e in schedule}
    assert kinds == {"LossBurst", "LinkOutage", "NodeCrash"}
    schedule.validate(n_nodes=1)


def test_build_schedule_empty_when_nothing_requested():
    schedule = build_schedule(
        loss_probability=0.0, outage_ms=0.0, crash=False,
        duration_ms=30_000.0,
    )
    assert not schedule
