"""Deterministic discrete-event simulation kernel.

Every GBooster substrate (GPU, radios, transports, applications) runs on
this kernel as callbacks.  Time is a float number of
milliseconds; all randomness is drawn from named :class:`RandomStream`
objects derived from a single run seed, so a simulation is fully
reproducible.
"""

from repro.sim.kernel import (
    Event,
    SimulationError,
    Simulator,
    TimerHandle,
)
from repro.sim.random import RandomStream
from repro.sim.resources import Gauge

__all__ = [
    "Event",
    "Gauge",
    "RandomStream",
    "SimulationError",
    "Simulator",
    "TimerHandle",
]
