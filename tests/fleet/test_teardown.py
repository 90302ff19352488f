"""Garbage guard: a finished fleet run is freed by refcounting alone.

Every fleet entry point ends through ``FleetRun.close()``, which tears
the simulator down; each component (node, registry, session) registered
what drops the edges it wired when it was built
(``Simulator.on_teardown``), so no reference cycle is left behind.  So
with the cyclic collector switched off, all of a run's objects (kernel,
controller, sessions, tens of thousands of spans) are freed the moment
its results are dropped, and a collection afterwards finds nothing.  One cycle left anywhere in the run would hold the whole
run as garbage for the collector to walk.

Each case runs twice and measures the second run, so objects that only a
first call creates and keeps (lazy imports, module caches) do not count
(``tests.gc_guard``, shared with the session guard).
"""

import pytest

from repro.apps.games import GAMES
from repro.experiments.capacity import run_capacity_point, steady
from repro.experiments.fleet import (
    launch_wave,
    make_fleet_pool,
    run_fleet_point,
)
from repro.experiments.fleet_shard import plan_fleet_shards
from repro.experiments.replay import run_replay_fleet
from repro.fleet import FleetConfig, FleetRun
from repro.sim.kernel import Simulator
from tests.gc_guard import assert_frees_itself


def fleet_point():
    run_fleet_point(12, 4, 2_000.0, seed=3, crash=True)


def capacity_point():
    run_capacity_point(8, 2, steady(span_ms=500.0), "balanced", 1_500.0, 3)


def replay_wave():
    run_replay_fleet(1_500.0, seed=2, n_sessions=3)


def one_shard():
    (job,) = plan_fleet_shards(8, 2, 1, seed=4, duration_ms=1_500.0)
    worker = job.start()
    while not worker.done:
        worker.run_window(worker.sim.now + 500.0)
    worker.finish()


def closed_mid_session():
    # Closed while every session is active: each one's watch is still
    # parked on its ``finished`` event, out of the kernel's reach.
    run = FleetRun(
        Simulator(seed=6), make_fleet_pool(2), FleetConfig(), 2_000.0,
        launch_wave(range(4), list(GAMES.values()), gap_ms=10.0),
    )
    run.sim.run(until=run.wave_start_ms + 500.0)
    assert len(run.controller.active) == 4
    run.close()


@pytest.mark.parametrize(
    "run",
    [fleet_point, capacity_point, replay_wave, one_shard, closed_mid_session],
    ids=lambda run: run.__name__,
)
def test_a_finished_run_leaves_no_cyclic_garbage(run):
    assert_frees_itself(run)
