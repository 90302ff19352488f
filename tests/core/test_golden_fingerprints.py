"""Golden fingerprints: the kernel's oracle for speed-only rewrites.

Each case runs a short seeded simulation and hashes what it produced:
per-frame issue and present times, uplink/downlink/raw bytes, energy and
``t_p`` for an offload session, the whole :class:`FleetPoint` for a fleet
run.  The pinned sha256s were generated before the kernel's callback
timers replaced one-shot processes; a change to the scheduler, the
transports or the engine that claims to be speed-only must leave every
one of them unchanged.  An equal-timestamp tie that now breaks the other
way shows up here first.

Regenerate only for a change that moves simulated output on purpose, and
record each old -> new digest with the reason:
``PYTHONPATH=src python -m tests.core.test_golden_fingerprints``.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict

import pytest

from repro import GBoosterConfig, run_local_session, run_offload_session
from repro.apps.engine import EngineConfig, GameEngine
from repro.apps.games import (
    CANDY_CRUSH,
    GTA_SAN_ANDREAS,
    MODERN_COMBAT,
    STAR_WARS_KOTOR,
)
from repro.apps.monkeyrunner import InputScript
from repro.baselines.local import LocalBackend
from repro.core.multiuser import run_multiuser_session
from repro.devices.runtime import UserDeviceRuntime
from repro.devices.profiles import (
    LG_G5,
    LG_NEXUS_5,
    MINIX_NEO_U1,
    NVIDIA_SHIELD,
)
from repro.experiments.fleet import run_fleet_point
from repro.faults.schedule import FaultSchedule
from repro.fleet.config import FleetConfig
from repro.metrics.energy import energy_report
from repro.sim.kernel import Simulator

SESSION_MS = 1_000.0
SEEDS = (0, 1, 2)


def _sha(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _session_fingerprint(result) -> str:
    stats = result.client_stats
    return _sha(
        [
            (f.frame_id, f.issued_at, f.presented_at)
            for f in result.engine.frames
        ],
        stats.uplink_bytes,
        stats.downlink_bytes,
        stats.raw_command_bytes,
        stats.state_bytes_multicast,
        stats.failovers,
        result.energy.total_j,
        result.t_p_ms,
    )


def _session(app, user, services, duration_ms=SESSION_MS, **switches):
    def run(seed: int) -> str:
        return _session_fingerprint(run_offload_session(
            app, user, services, config=GBoosterConfig(**switches),
            duration_ms=duration_ms, seed=seed,
        ))

    return run


def _local(app, user, duration_ms=SESSION_MS):
    def run(seed: int) -> str:
        result = run_local_session(app, user, duration_ms=duration_ms, seed=seed)
        return _sha(
            [
                (f.frame_id, f.issued_at, f.presented_at)
                for f in result.engine.frames
            ],
            result.energy.total_j,
            result.gpu_mean_utilization,
        )

    return run


def _scripted(app, user, tapper, duration_ms=3_000.0):
    # The session runners build no scripted engine, so this one is wired
    # by hand: ``tapper``'s recorded touches replay, looping, into a local
    # session of ``app``.
    def run(seed: int) -> str:
        script = InputScript.record_from_generator(
            tapper, duration_ms=duration_ms, seed=seed
        )
        sim = Simulator(seed=seed)
        device = UserDeviceRuntime(
            sim, user,
            render_width=app.render_width, render_height=app.render_height,
        )
        engine = GameEngine(
            sim, app, device, LocalBackend(sim, device),
            EngineConfig(duration_ms=duration_ms, input_script=script),
        )
        sim.run_until_event(engine.finished, limit=duration_ms * 4)
        return _sha(
            [
                (f.frame_id, f.issued_at, f.presented_at, f.touches_since_last)
                for f in engine.frames
            ],
            [(e.time_ms, e.strength) for e in engine.touch.events],
            energy_report(device).total_j,
        )

    return run


def _multiuser(apps, duration_ms=3_000.0, **switches):
    # Users' frames count from the engine's 2 s warmup on, so a 1 s
    # session would present none.
    def run(seed: int) -> str:
        result = run_multiuser_session(
            apps, config=GBoosterConfig(**switches),
            duration_ms=duration_ms, seed=seed, shared_wifi_channel=True,
        )
        return _sha([(u.priority, u.fps) for u in result.users])

    return run


def _fleet(
    sessions: int, devices: int, duration_ms: float, **config: bool
) -> Callable[[int], str]:
    def run(seed: int) -> str:
        point, _ = run_fleet_point(
            sessions, devices, duration_ms, seed=seed, crash=True,
            config=FleetConfig(**config) if config else None,
        )
        return _sha(point)

    return run


#: The benchmark's three session configurations, a lossy two-node session
#: whose watchdog condemns a crashed node (RTO retransmissions, failover),
#: a blocking-swap session, and three fleet points with a crash: a small
#: one, one at the benchmark's shape (many same-spec nodes, so the most
#: chances of an equal-timestamp tie), and one with the planner (title
#: probe, telemetry), record-once replay (warm sessions) and the
#: invariant monitor armed.  Three more cover the paths those miss: a
#: local session (the GPU's completion is the presentation), a local
#: session replaying a recorded touch script, and two users on one
#: service device under the priority queue, their radios sharing one
#: channel.
CASES: Dict[str, Callable[[int], str]] = {
    "g3_g5_shield": _session(STAR_WARS_KOTOR, LG_G5, [NVIDIA_SHIELD]),
    "g1_n5_multi_wire": _session(
        GTA_SAN_ANDREAS, LG_NEXUS_5, [NVIDIA_SHIELD, MINIX_NEO_U1],
        modelled_compression=False,
    ),
    "g3_g5_observed": _session(
        STAR_WARS_KOTOR, LG_G5, [NVIDIA_SHIELD],
        telemetry=True, causal_tracing=True, flight_recorder=True, check=True,
    ),
    "g1_n5_lossy_crash": _session(
        GTA_SAN_ANDREAS, LG_NEXUS_5, [NVIDIA_SHIELD, MINIX_NEO_U1],
        duration_ms=2_000.0,
        frame_timeout_ms=300.0,
        faults=(
            FaultSchedule()
            .loss_burst(at_ms=200.0, duration_ms=600.0, loss_probability=0.3)
            .crash(at_ms=1_000.0, node=1)
        ),
    ),
    # Blocking SwapBuffer: the frame loop waits on the completion it has
    # just submitted, so it and the presentation share one trigger.
    "g1_n5_blocking_swap": _session(
        GTA_SAN_ANDREAS, LG_NEXUS_5, [NVIDIA_SHIELD], async_swap=False,
    ),
    "g3_g5_local": _local(STAR_WARS_KOTOR, LG_G5),
    "g1_n5_local_scripted": _scripted(
        GTA_SAN_ANDREAS, LG_NEXUS_5, tapper=CANDY_CRUSH,
    ),
    "multiuser_priority_shared_channel": _multiuser(
        [MODERN_COMBAT, CANDY_CRUSH], service_queue_policy="priority",
    ),
    "fleet_8x2_crash": _fleet(8, 2, 3_000.0),
    "fleet_128x16_crash": _fleet(128, 16, 10_000.0),
    "fleet_32x8_planner_replay_check": _fleet(
        32, 8, 3_000.0, planner=True, replay=True, check=True,
    ),
}

GOLDEN: Dict[str, Dict[int, str]] = {
    "fleet_128x16_crash": {
        0: "1f24b13a07e415ea914bc7e66715981d2b4dc19afb8b687e7aa3afddb1bcc60d",
        1: "d6b0fe7e4a88617712e8034cad4c24a34f0247d0c4f00bf1580d8d07ddf98df0",
        2: "ae614fcd51d91cfe9556bd229c5adc1b58e49d5d6a1e8b5783b130ce061dea93",
    },
    "fleet_32x8_planner_replay_check": {
        0: "61901aa751b747ce93c3caa9d75e00990f52b634605178249e616dd616620614",
        1: "e47ab7ee496fbc3645237176c45b5085e008384c0900d2bda5c4b0201fd7f473",
        2: "584896ae4d923285b5476ff1dafb2dcfe5ceb1f48ce032371d2ffd9aa222b233",
    },
    "fleet_8x2_crash": {
        0: "58569467970e2cf90d2d96f4a19a751b5c4ca964776ebe084079bc25614b9044",
        1: "40a277dee27f76def96c1bff8fc422ce52d0b3f8b8c0002f4361055b51834005",
        2: "358bd697fd6da4cc39d4161b4db36eba60fe51a47963d8552a6876e669a7b6d7",
    },
    "g1_n5_lossy_crash": {
        0: "30d151583c969d3e0ca43e74a19e66f71fd624967d380937ae606362241e6c7b",
        1: "29cd4ab589d52214369be4d2cd32908a4ce4f7265cc0d1ff979d4500482b39f1",
        2: "d2c2118902a37ac01a1328be6f64bdcb0d258c2d5687660243c0ae7438e6d37b",
    },
    "g1_n5_blocking_swap": {
        0: "83766d1879c582087ae0f458a5b1f033d405d9358a006c710e7c72c3c9deebf3",
        1: "6da8db14ff20761e275984066dbdffd65de551f93758ebcaae0428ffa0551095",
        2: "17227e99e694421d488a61e42c580de305ca83a66c96468429bba1507bf0974d",
    },
    "g1_n5_multi_wire": {
        0: "5442880829d0089fe7182749366ca9c0c8b2166cad457b7e34235b0f2be8d066",
        1: "72866af9c902409f08b5f3d63f2f215764a76e323ae3ad150895ff166f8daa85",
        2: "cfe4a0d5301dcf2f25c6dc5cae19685cbbcf6a0ea74b1942e61079723f4c011e",
    },
    "g3_g5_observed": {
        0: "7603045ee20514bcbdf797e7c641611e3246c40666888427d62951dc37c9206a",
        1: "80754ebbe1612c2b6ae7c2eb82b063eea1f078b3a9889b4ccfa17642262eb013",
        2: "c88ba82a1919cb46949a5911b1d024ee622ddb94df139882facfa793157cbdd8",
    },
    "g3_g5_local": {
        0: "53a3924e03b3827d0297288161f0b5c4fc24b22a528913bd851ecc6600e039b2",
        1: "aff9ef075ca7706a9858a85c3c7d84f8bae6a36c01ae31a4c625e87a3ea0bf68",
        2: "2a05ca67c1038c9439c644c42946cfab3dc012ccf8ab45b31e9ac13b36fd1aaf",
    },
    "g1_n5_local_scripted": {
        0: "3b7c92168ba2759c2e2a0c7c4ee1d337d8329b9ee665ead3061038a020bcd08e",
        1: "d6120dbe5972e1f2982c4f5fff4efd2126f55b95acd78e61ade4901f4de29157",
        2: "846cdab64a80247caa6d134bd1ecb2beec0ab59c3c9a4e3eda3078d3d20eba4d",
    },
    "multiuser_priority_shared_channel": {
        0: "ab11551d91c1b4575240f8472669484ee3010a32cff1e4521c0971f708b28d32",
        1: "cab3d65bfd7d9e1bebc9f04e931c024400dbe8d1060f582c7ce6040407707837",
        2: "683b488746db9329c6716dbc6c1622e4a3102fd1f71e6a87bc1ad3954b70c31e",
    },
    "g3_g5_shield": {
        0: "c6fe8e789be567a67d83ddfab44a5dfb34525310d0f98b276f20411bcd8ed842",
        1: "f086dedda11a160dcdd6fa9107780fd33a8017c95623614afd0905b9f11063fb",
        2: "6b494c6a05f00ce22f39cc15c76437648c0f512a10c84cd995654ddd1b35488c",
    },
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_fingerprint_is_pinned(case: str, seed: int) -> None:
    assert CASES[case](seed) == GOLDEN[case][seed]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}: {{")
        for seed in SEEDS:
            print(f"        {seed}: {CASES[name](seed)!r},")
        print("    },")
