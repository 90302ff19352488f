"""Observation is inert: arming an observer moves no simulated output.

Telemetry, the flight recorder and the invariant monitor only read the
simulation, so a session armed with any one of them must reproduce the
unarmed session's golden fingerprint exactly.  Causal tracing is the one
designed exception: its trace context rides the codec wire header, so
the uplink carries :data:`~repro.obs.causal.TRACE_WIRE_BYTES` more per
frame and nothing else moves (the frames issued stay the same).  With
every observer armed, as the ``observed_g3`` benchmark runs, a session
equals the one traced alone.
"""

from __future__ import annotations

import pytest

from repro import GBoosterConfig, run_offload_session
from repro.apps.games import GTA_SAN_ANDREAS, STAR_WARS_KOTOR
from repro.devices.profiles import (
    LG_G5,
    LG_NEXUS_5,
    MINIX_NEO_U1,
    NVIDIA_SHIELD,
)
from repro.experiments.fleet import run_fleet_point
from repro.fleet.config import FleetConfig
from repro.obs.causal import TRACE_WIRE_BYTES
from tests.core.test_golden_fingerprints import _session_fingerprint

SESSION_MS = 2_000.0
SEEDS = (0, 1, 2)


#: every observer switch, as the ``observed_g3`` benchmark arms them
ALL_OBSERVERS = dict(
    telemetry=True, causal_tracing=True, flight_recorder=True, check=True
)


def _session(seed: int, app=STAR_WARS_KOTOR, user=LG_G5,
             services=(NVIDIA_SHIELD,), **switches: bool):
    return run_offload_session(
        app, user, list(services),
        config=GBoosterConfig(**switches),
        duration_ms=SESSION_MS, seed=seed,
    )


@pytest.fixture(scope="module")
def unarmed():
    return {seed: _session(seed) for seed in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("observer", ["telemetry", "flight_recorder", "check"])
def test_an_armed_observer_moves_nothing(unarmed, observer, seed):
    armed = _session(seed, **{observer: True})
    assert _session_fingerprint(armed) == _session_fingerprint(unarmed[seed])


@pytest.mark.parametrize("seed", SEEDS)
def test_causal_tracing_adds_only_its_wire_header(unarmed, seed):
    plain = unarmed[seed]
    traced = _session(seed, causal_tracing=True)
    assert [f.frame_id for f in traced.engine.frames] == [
        f.frame_id for f in plain.engine.frames
    ]
    frames = plain.client_stats.frames_submitted
    assert frames > 0
    assert traced.client_stats.frames_submitted == frames
    assert (
        traced.client_stats.uplink_bytes - plain.client_stats.uplink_bytes
        == TRACE_WIRE_BYTES * frames
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "app, user, services",
    [
        (STAR_WARS_KOTOR, LG_G5, (NVIDIA_SHIELD,)),
        (GTA_SAN_ANDREAS, LG_NEXUS_5, (NVIDIA_SHIELD, MINIX_NEO_U1)),
    ],
    ids=["kotor-g5", "gta-nexus5"],
)
def test_all_observers_armed_equal_tracing_alone(app, user, services, seed):
    armed = _session(seed, app, user, services, **ALL_OBSERVERS)
    traced = _session(seed, app, user, services, causal_tracing=True)
    assert armed.check.ok
    assert _session_fingerprint(armed) == _session_fingerprint(traced)


def test_a_checked_fleet_point_equals_the_unarmed_one():
    def point(**config: bool):
        return run_fleet_point(
            16, 4, 3_000.0, seed=0, crash=True, config=FleetConfig(**config),
        )[0]

    checked = point(check=True)
    assert checked.invariant_violations == 0
    assert checked == point()
