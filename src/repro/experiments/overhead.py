"""Experiments O1/T3: system overhead (§VII-G) and non-gaming apps (Table III).

O1 — memory footprint of the client runtime (paper: ~47.8 MB average) and
the CPU-utilization delta between local and offloaded execution of G1 on
the Nexus 5 (paper: 68% -> 79%).

T3 — the three non-gaming applications: zero FPS boost and ~92-94%
normalized energy (a small but real saving).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.apps.base import ApplicationSpec
from repro.apps.games import GTA_SAN_ANDREAS
from repro.apps.nongaming import NONGAMING_APPS
from repro.core.config import GBoosterConfig
from repro.core.session import run_local_session, run_offload_session
from repro.devices.profiles import DeviceSpec, LG_NEXUS_5
from repro.metrics.energy import normalized_energy
from repro.metrics.overhead import OverheadReport, memory_overhead_mb


def run_overhead_experiment(
    app: ApplicationSpec = GTA_SAN_ANDREAS,
    user_device: DeviceSpec = LG_NEXUS_5,
    duration_ms: float = 180_000.0,
    seed: int = 0,
    config: Optional[GBoosterConfig] = None,
) -> OverheadReport:
    """O1: memory breakdown + CPU utilization local vs offloaded."""
    config = config or GBoosterConfig()
    local = run_local_session(app, user_device, duration_ms=duration_ms,
                              seed=seed)
    boosted = run_offload_session(app, user_device, config=config,
                                  duration_ms=duration_ms, seed=seed)
    # Mean cached entry size measured from the live pipeline.
    pipeline = boosted.engine.backend.pipeline
    cache = pipeline.cache.sender
    entries = len(cache)
    mean_entry = cache.byte_size() / entries if entries else 64.0
    breakdown = memory_overhead_mb(
        cache_capacity=config.cache_capacity,
        mean_cached_entry_bytes=mean_entry * app.stream_scale,
        frame_width=app.render_width,
        frame_height=app.render_height,
    )
    return OverheadReport(
        memory_mb=sum(breakdown.values()),
        cpu_local_util=local.cpu_mean_utilization,
        cpu_offloaded_util=boosted.cpu_mean_utilization,
        breakdown_mb=breakdown,
    )


@dataclass
class NonGamingRow:
    app: str
    fps_boost: float                   # paper: 0 for all three
    normalized_energy: float           # paper: ~92-94%


def run_table3(
    duration_ms: float = 180_000.0,
    apps: Optional[Sequence[str]] = None,
    user_device: DeviceSpec = LG_NEXUS_5,
    seed: int = 0,
) -> List[NonGamingRow]:
    rows: List[NonGamingRow] = []
    for short_name in apps or NONGAMING_APPS.keys():
        app = NONGAMING_APPS[short_name]
        local = run_local_session(app, user_device, duration_ms=duration_ms,
                                  seed=seed)
        boosted = run_offload_session(app, user_device,
                                      duration_ms=duration_ms, seed=seed)
        boost = boosted.fps.median_fps - local.fps.median_fps
        rows.append(
            NonGamingRow(
                app=app.name,
                fps_boost=boost,
                normalized_energy=normalized_energy(
                    boosted.energy, local.energy
                ),
            )
        )
    return rows
