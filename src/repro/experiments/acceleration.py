"""Experiment F5: application acceleration (paper Fig 5).

Runs every game of Table II on the old- and new-generation user devices,
locally and with GBooster against the Nvidia Shield, and reports the three
§VII-B metrics per cell: median FPS, FPS stability, average response time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.apps.base import ApplicationSpec
from repro.apps.games import GAMES
from repro.core.config import GBoosterConfig
from repro.core.session import run_local_session, run_offload_session
from repro.devices.profiles import DeviceSpec, LG_G5, LG_NEXUS_5, NVIDIA_SHIELD
from repro.sim.shard import run_parallel_jobs

#: paper anchors for the Nexus 5 cells we calibrate against (median FPS)
PAPER_NEXUS5_LOCAL = {"G1": 23, "G2": 22, "G5": 50}
PAPER_NEXUS5_BOOSTED = {"G1": 37, "G2": 40, "G5": 52}


@dataclass
class AccelerationRow:
    game: str
    device: str
    local_fps: float
    boosted_fps: float
    local_stability: float
    boosted_stability: float
    local_response_ms: float
    boosted_response_ms: float

    @property
    def fps_boost_percent(self) -> float:
        if self.local_fps <= 0:
            return 0.0
        return (self.boosted_fps - self.local_fps) / self.local_fps * 100.0


def run_acceleration_cell(
    app: ApplicationSpec,
    user_device: DeviceSpec,
    service_device: DeviceSpec = NVIDIA_SHIELD,
    duration_ms: float = 900_000.0,
    seed: int = 0,
    config: Optional[GBoosterConfig] = None,
) -> AccelerationRow:
    """One game on one device: the paired local/GBooster measurement."""
    local = run_local_session(app, user_device, duration_ms=duration_ms,
                              seed=seed)
    boosted = run_offload_session(
        app,
        user_device,
        service_devices=[service_device],
        config=config,
        duration_ms=duration_ms,
        seed=seed,
    )
    return AccelerationRow(
        game=app.short_name,
        device=user_device.name,
        local_fps=local.fps.median_fps,
        boosted_fps=boosted.fps.median_fps,
        local_stability=local.fps.stability,
        boosted_stability=boosted.fps.stability,
        local_response_ms=local.response_time_ms,
        boosted_response_ms=boosted.response_time_ms,
    )


def run_figure5(
    duration_ms: float = 900_000.0,
    games: Optional[Sequence[str]] = None,
    devices: Optional[Sequence[DeviceSpec]] = None,
    seed: int = 0,
    workers: int = 1,
) -> List[AccelerationRow]:
    """The full Fig 5 matrix: 6 games x {Nexus 5, LG G5} x {local, boosted}.

    Each cell is its own pair of sessions; ``workers`` processes run them,
    rows in matrix order whatever the count.
    """
    games = list(games or GAMES.keys())
    devices = list(devices if devices is not None else [LG_NEXUS_5, LG_G5])
    return run_parallel_jobs(
        [
            (run_acceleration_cell, (
                GAMES[short_name], device, NVIDIA_SHIELD, duration_ms, seed,
            ))
            for device in devices
            for short_name in games
        ],
        workers,
    )


def format_rows(rows: Sequence[AccelerationRow]) -> str:
    lines = [
        f"{'game':4} {'device':12} {'FPS local->boost':>18} "
        f"{'stability':>14} {'response ms':>16}"
    ]
    for r in rows:
        lines.append(
            f"{r.game:4} {r.device[:12]:12} "
            f"{r.local_fps:7.1f} -> {r.boosted_fps:6.1f} "
            f"{r.local_stability * 100:5.0f}%->{r.boosted_stability * 100:4.0f}% "
            f"{r.local_response_ms:7.1f} -> {r.boosted_response_ms:5.1f}"
        )
    return "\n".join(lines)
