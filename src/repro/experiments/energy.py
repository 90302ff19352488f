"""Experiment F6: power saving (paper Fig 6).

(a) normalized energy consumption of every game with GBooster against
    local execution, on both user devices;
(b) the same with the interface-switching optimization disabled
    (WiFi carries everything), isolating the §V-B saving.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.apps.base import ApplicationSpec
from repro.apps.games import GAMES
from repro.core.config import GBoosterConfig
from repro.core.session import run_local_session, run_offload_session
from repro.devices.profiles import DeviceSpec, LG_G5, LG_NEXUS_5
from repro.metrics.energy import normalized_energy
from repro.sim.shard import run_parallel_jobs


@dataclass
class EnergyRow:
    game: str
    device: str
    normalized_with_switching: float
    normalized_without_switching: float
    bluetooth_residency: float
    local_power_w: float

    @property
    def switching_benefit(self) -> float:
        """Normalized-power increase when the optimization is disabled."""
        return (
            self.normalized_without_switching - self.normalized_with_switching
        )


def run_energy_cell(
    app: ApplicationSpec,
    user_device: DeviceSpec,
    duration_ms: float = 300_000.0,
    seed: int = 0,
) -> EnergyRow:
    """One Fig 6 cell: local vs switching vs always-WiFi."""
    local = run_local_session(app, user_device, duration_ms=duration_ms,
                              seed=seed)
    switching = run_offload_session(
        app, user_device,
        config=GBoosterConfig(switching_policy="predictive"),
        duration_ms=duration_ms, seed=seed,
    )
    always_wifi = run_offload_session(
        app, user_device,
        config=GBoosterConfig(switching_policy="always_wifi"),
        duration_ms=duration_ms, seed=seed,
    )
    return EnergyRow(
        game=app.short_name,
        device=user_device.name,
        normalized_with_switching=normalized_energy(
            switching.energy, local.energy
        ),
        normalized_without_switching=normalized_energy(
            always_wifi.energy, local.energy
        ),
        bluetooth_residency=(
            switching.switching.bluetooth_residency
            if switching.switching
            else 0.0
        ),
        local_power_w=local.energy.mean_power_w,
    )


def run_figure6(
    duration_ms: float = 300_000.0,
    games: Optional[Sequence[str]] = None,
    devices: Optional[Sequence[DeviceSpec]] = None,
    seed: int = 0,
    workers: int = 1,
) -> List[EnergyRow]:
    """The Fig 6 matrix: games x devices, one cell per game and device.

    ``workers`` processes run the cells, rows in matrix order whatever
    the count.
    """
    games = list(games or GAMES.keys())
    devices = list(devices if devices is not None else [LG_NEXUS_5, LG_G5])
    return run_parallel_jobs(
        [
            (run_energy_cell, (GAMES[short_name], device, duration_ms, seed))
            for device in devices
            for short_name in games
        ],
        workers,
    )


def format_rows(rows: Sequence[EnergyRow]) -> str:
    lines = [
        f"{'game':4} {'device':12} {'norm E (switch)':>16} "
        f"{'norm E (wifi only)':>19} {'BT residency':>13}"
    ]
    for r in rows:
        lines.append(
            f"{r.game:4} {r.device[:12]:12} "
            f"{r.normalized_with_switching * 100:13.0f}% "
            f"{r.normalized_without_switching * 100:17.0f}% "
            f"{r.bluetooth_residency * 100:11.0f}%"
        )
    return "\n".join(lines)
