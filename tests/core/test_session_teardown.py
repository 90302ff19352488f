"""Garbage guard: a finished session is freed by refcounting alone.

Both session runners, the multi-user session and every other runner of a
session-side kernel (discovery, a recorded touch script, a fuzzed
transport) end in ``sim.teardown()``.  Each component registered what
drops the edge it wired when it was built (``Simulator.on_teardown``:
link receivers, transport callbacks, the scheduler's observer, the touch
callback, what waits for a radio to wake), and teardown runs those
breakers; per-frame events and wire messages leave a frame's metadata
when they are done with.  So with the cyclic collector off, a collection
after a session finds nothing.  ``tests/fleet/test_teardown.py`` is the
fleet's guard; ``tests/sim/test_teardown_sites.py`` maps every runner to
its case here or there.
"""

import pytest

from repro.apps.games import (
    CANDY_CRUSH,
    GAMES,
    GTA_SAN_ANDREAS,
    MODERN_COMBAT,
    STAR_WARS_KOTOR,
)
from repro.apps.monkeyrunner import InputScript
from repro.check.fuzz import TransportDelivery
from repro.core.adaptive import run_adaptive_session
from repro.core.config import GBoosterConfig
from repro.core.multiuser import run_multiuser_session
from repro.core.session import run_local_session, run_offload_session
from repro.devices.profiles import LG_G5, MINIX_NEO_U1, NVIDIA_SHIELD
from repro.faults.schedule import FaultSchedule
from repro.metrics.energy import energy_report
from repro.metrics.spans import pipeline_breakdown
from repro.sim.kernel import SimulationError, Simulator
from tests.gc_guard import assert_frees_itself

OBSERVED = dict(
    telemetry=True, causal_tracing=True, flight_recorder=True, check=True
)

DURATION = 1_500.0
SEED = 3


def offload(services=(NVIDIA_SHIELD,), **config):
    run_offload_session(
        STAR_WARS_KOTOR, LG_G5, list(services),
        config=GBoosterConfig(**config), duration_ms=DURATION, seed=SEED,
    )


def local():
    run_local_session(STAR_WARS_KOTOR, LG_G5, duration_ms=DURATION, seed=SEED)


def local_checked():
    run_local_session(
        STAR_WARS_KOTOR, LG_G5, duration_ms=DURATION, seed=SEED,
        config=GBoosterConfig(check=True),
    )


def offload_default():
    offload()


def two_services():
    offload((NVIDIA_SHIELD, MINIX_NEO_U1))


def planner():
    offload(switching_policy="planner", telemetry=True)


def replay():
    offload(replay=True)


def crash():
    offload(
        (NVIDIA_SHIELD, MINIX_NEO_U1),
        faults=FaultSchedule().crash(at_ms=500.0, node=0),
    )


def observed():
    offload(**OBSERVED)


def ends_mid_wake():
    # This session ends while the WiFi radio wakes for a route flip: the
    # flips stay parked on the radio's wake event until the close.
    run_offload_session(
        GAMES["G4"], LG_G5, [NVIDIA_SHIELD],
        config=GBoosterConfig(switching_policy="predictive"),
        duration_ms=11_110.0, seed=1,
    )


def multiuser():
    run_multiuser_session(
        [MODERN_COMBAT, CANDY_CRUSH], duration_ms=500.0, seed=0,
    )


def multiuser_priority_shared_channel():
    run_multiuser_session(
        [MODERN_COMBAT, CANDY_CRUSH],
        config=GBoosterConfig(service_queue_policy="priority"),
        duration_ms=500.0, seed=0, shared_wifi_channel=True,
    )


def adaptive_offload():
    # Discovery finds the console, so the session offloads to it.
    run_adaptive_session(
        GTA_SAN_ANDREAS, ambient_devices=[NVIDIA_SHIELD],
        duration_ms=500.0, seed=SEED,
    )


def adaptive_local():
    # Nothing answers discovery and there is no Internet: local.
    run_adaptive_session(
        GTA_SAN_ANDREAS, internet_available=False,
        duration_ms=500.0, seed=SEED,
    )


def recorded_script():
    InputScript.record_from_generator(GTA_SAN_ANDREAS, 5_000.0, seed=SEED)


def fuzzed_transport():
    TransportDelivery().check(
        {"seed": SEED, "loss": 0.2, "sizes": [500, 20_000, 40, 3_000]}
    )


@pytest.mark.parametrize(
    "run",
    [local, local_checked, offload_default, two_services, planner, replay,
     crash, observed, ends_mid_wake, multiuser,
     multiuser_priority_shared_channel, adaptive_offload, adaptive_local,
     recorded_script, fuzzed_transport],
    ids=lambda run: run.__name__,
)
def test_a_finished_session_leaves_no_cyclic_garbage(run):
    assert_frees_itself(run)


def _readout(result):
    """Everything a caller reads off a finished session."""
    sim = result.engine.sim
    return repr((
        energy_report(result.device),
        pipeline_breakdown(sim.spans),
        len(sim.spans),
        sim.metrics.snapshot(),
        sim.spans.tail_marks(len(sim.spans)),
        result.telemetry.report(),
        result.flight.summary(),
        result.causal.witness(sim.now),
        sim.spans.trace_of(result.causal.last_trace.trace_id),
        result.check.ok,
        result.check.violations,
        result.check.digests.summary(),
    ))


def test_a_closed_result_stays_readable(monkeypatch):
    """A session's result reads the same whether or not it was closed,
    and its torn-down simulator refuses to run again."""
    faults = FaultSchedule().loss_burst(
        at_ms=400.0, duration_ms=300.0, loss_probability=0.4
    )

    def run():
        return run_offload_session(
            STAR_WARS_KOTOR, LG_G5, [NVIDIA_SHIELD],
            config=GBoosterConfig(faults=faults, **OBSERVED),
            duration_ms=DURATION, seed=SEED,
        )

    closed = run()
    with pytest.raises(SimulationError):
        closed.engine.sim.run()
    assert closed.energy == energy_report(closed.device)
    monkeypatch.setattr(Simulator, "teardown", lambda self: None)
    open_result = run()
    assert not open_result.engine.sim.torn_down
    assert _readout(closed) == _readout(open_result)


class _Owner:
    def __init__(self):
        self.peer = _Peer(self)


class _Peer:
    def __init__(self, owner):
        self.back = {"owner": owner}


def test_a_guard_failure_names_the_cycle():
    with pytest.raises(AssertionError) as failure:
        assert_frees_itself(_Owner)
    message = str(failure.value)
    assert "3 objects, 3 edges:" in message
    for edge in ("_Owner.peer -> _Peer", "_Peer.back -> dict",
                 "dict['owner'] -> _Owner"):
        assert edge in message
