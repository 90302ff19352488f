"""Gauge behaviour."""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.resources import Gauge
from tests.coroutines import spawn


class TestGauge:
    def test_integral_piecewise_constant(self):
        sim = Simulator()
        gauge = Gauge(sim, initial=2.0)

        def proc():
            yield 10.0
            gauge.set(5.0)
            yield 10.0
            gauge.set(0.0)
            yield 10.0

        spawn(sim, proc())
        sim.run()
        # 2*10 + 5*10 + 0*10 = 70
        assert gauge.integral() == pytest.approx(70.0)

    def test_mean(self):
        sim = Simulator()
        gauge = Gauge(sim, initial=4.0)

        def proc():
            yield 5.0
            gauge.set(0.0)
            yield 5.0

        spawn(sim, proc())
        sim.run()
        assert gauge.mean() == pytest.approx(2.0)

    def test_add_accumulates(self):
        sim = Simulator()
        gauge = Gauge(sim, initial=1.0)
        gauge.add(2.0)
        assert gauge.value == 3.0
        gauge.add(-3.0)
        assert gauge.value == 0.0

    def test_mean_spans_the_gauge_lifetime(self):
        """A gauge made mid-run averages from its creation, not from 0,
        and re-setting an unchanged value leaves the integral alone."""
        sim = Simulator()
        sim.run(until=10.0)
        gauge = Gauge(sim, initial=1.0)
        assert gauge.mean() == 1.0  # no time has passed yet
        sim.run(until=20.0)
        gauge.set(1.0)
        sim.run(until=30.0)
        gauge.set(4.0)
        sim.run(until=40.0)
        assert gauge.integral() == pytest.approx(1.0 * 20 + 4.0 * 10)
        assert gauge.mean() == pytest.approx(60.0 / 30.0)
