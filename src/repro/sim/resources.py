"""Gauges: piecewise-constant quantities integrated over simulated time.

A radio's or GPU's power draw and a GPU's busy flag are gauges; energy is
a power gauge's integral and utilization a busy gauge's mean.  The queues
of the radio, GPU and service daemon are plain FIFOs inside those
components, which hand each item on with ``Simulator.soon``.
"""

from __future__ import annotations

from repro.sim.kernel import Simulator


class Gauge:
    """A piecewise-constant quantity sampled over simulated time.

    Used for energy integration (power gauge) and utilization accounting.
    ``integral()`` returns the time integral of the gauge up to ``now``.
    """

    def __init__(self, sim: Simulator, initial: float = 0.0, name: str = ""):
        self.sim = sim
        self.name = name or "gauge"
        self.value = initial
        self._started = sim.now
        self._last_change = sim.now
        self._integral = 0.0

    def set(self, value: float) -> None:
        now = self.sim.now
        self._integral += self.value * (now - self._last_change)
        self._last_change = now
        self.value = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def integral(self) -> float:
        """Time integral of the gauge from its creation to now."""
        return self._integral + self.value * (self.sim.now - self._last_change)

    def mean(self) -> float:
        elapsed = self.sim.now - self._started
        if elapsed <= 0:
            return self.value
        return self.integral() / elapsed
