"""Fleet fixtures: one construction recipe per subsystem under test.

These used to be copy-pasted module helpers (each building its own
``Simulator(seed=0)``); they are factories rather than plain fixtures so
tests can still pass :class:`FleetConfig` overrides per case.
"""

import pytest

from repro.devices.profiles import NVIDIA_SHIELD
from repro.experiments.fleet import make_fleet_pool
from repro.fleet import (
    AdmissionController,
    DeviceRegistry,
    FleetConfig,
    FleetController,
    FleetNode,
    SessionPlacer,
)


@pytest.fixture
def make_admission(sim):
    def make(**overrides):
        return sim, AdmissionController(sim, FleetConfig(**overrides))

    return make


@pytest.fixture
def make_fleet_node(sim):
    def make(spec=NVIDIA_SHIELD):
        done = []
        node = FleetNode(sim, spec, on_complete=done.append)
        return sim, node, done

    return make


@pytest.fixture
def make_registry(make_sim):
    def make(seed=0):
        sim = make_sim(seed)
        return sim, DeviceRegistry(sim)

    return make


@pytest.fixture
def make_world(sim):
    def make(specs, **overrides):
        config = FleetConfig(**overrides)
        nodes = [FleetNode(sim, spec) for spec in specs]
        return sim, config, SessionPlacer(sim, config), nodes

    return make


@pytest.fixture
def boot_controller(make_sim):
    """A bootstrapped controller over a fresh pool; returns (sim, controller)."""

    def boot(n_devices=4, seed=0, config=None):
        sim = make_sim(seed)
        controller = FleetController(sim, make_fleet_pool(n_devices),
                                     config or FleetConfig())
        sim.run_until_event(controller.bootstrapped, limit=60_000.0)
        return sim, controller

    return boot
