"""Deterministic discrete-event simulation kernel.

Every GBooster substrate (GPU, radios, transports, applications) runs as a
process on this kernel.  Time is a float number of milliseconds; all
randomness is drawn from named :class:`RandomStream` objects derived from a
single run seed, so a simulation is fully reproducible.
"""

from repro.sim.kernel import (
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    TimerEvent,
    TimerHandle,
)
from repro.sim.random import RandomStream
from repro.sim.resources import Gauge, Resource, Store

__all__ = [
    "Event",
    "Gauge",
    "Interrupt",
    "Process",
    "RandomStream",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "TimerEvent",
    "TimerHandle",
]
