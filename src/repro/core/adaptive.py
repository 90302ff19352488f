"""Adaptive execution-mode selection (paper §VIII).

"Under some rare circumstances where there is no available multimedia
device nearby, the cloud-based platforms could still provide service" —
the adaptive runner implements that complement: discover service devices
on the LAN; if any respond, offload with GBooster; otherwise fall back to
the cloud remote-rendering platform (or, if even that is unreachable,
plain local execution).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.apps.base import ApplicationSpec
from repro.baselines.cloud import CloudGamingModel
from repro.core.config import GBoosterConfig
from repro.core.session import (
    SessionResult,
    run_local_session,
    run_offload_session,
)
from repro.devices.profiles import DeviceSpec, LG_NEXUS_5
from repro.net.discovery import DiscoveryResult, DiscoveryService
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStream


@dataclass
class AdaptiveOutcome:
    """What the adaptive runner decided and how the session went."""

    mode: str                          # "gbooster" | "cloud" | "local"
    discovery: Optional[DiscoveryResult]
    median_fps: float
    response_time_ms: float
    session: Optional[SessionResult] = None


def discover_services(
    ambient_devices: Sequence[DeviceSpec],
    timeout_ms: float = 500.0,
    seed: int = 0,
) -> DiscoveryResult:
    """Run one discovery round on a fresh simulator."""
    sim = Simulator(seed=seed)
    service = DiscoveryService(sim, ambient_devices)
    done = service.probe(timeout_ms=timeout_ms)
    sim.run_until_event(done, limit=timeout_ms * 4)
    sim.teardown()
    return done.value


def run_adaptive_session(
    app: ApplicationSpec,
    user_device: DeviceSpec = LG_NEXUS_5,
    ambient_devices: Sequence[DeviceSpec] = (),
    internet_available: bool = True,
    duration_ms: float = 60_000.0,
    config: Optional[GBoosterConfig] = None,
    max_service_devices: int = 3,
    seed: int = 0,
) -> AdaptiveOutcome:
    """Pick the best available execution mode and run the session.

    Preference order (the paper's §VIII discussion): neighbourhood
    offloading when any device answers discovery; the cloud platform when
    the Internet is reachable; local execution as the last resort.
    """
    discovery = discover_services(ambient_devices, seed=seed)
    if discovery.found_any:
        chosen = [
            ad.device for ad in discovery.ranked()[:max_service_devices]
        ]
        session = run_offload_session(
            app, user_device,
            service_devices=chosen,
            config=config,
            duration_ms=duration_ms,
            seed=seed,
        )
        return AdaptiveOutcome(
            mode="gbooster",
            discovery=discovery,
            median_fps=session.fps.median_fps,
            response_time_ms=session.response_time_ms,
            session=session,
        )
    if internet_available:
        cloud = CloudGamingModel()
        result = cloud.simulate_session(
            app, duration_s=duration_ms / 1000.0,
            rng=RandomStream(seed, "adaptive.cloud"),
        )
        return AdaptiveOutcome(
            mode="cloud",
            discovery=discovery,
            median_fps=result.median_fps,
            response_time_ms=result.mean_response_ms,
        )
    session = run_local_session(app, user_device, duration_ms=duration_ms,
                                seed=seed)
    return AdaptiveOutcome(
        mode="local",
        discovery=discovery,
        median_fps=session.fps.median_fps,
        response_time_ms=session.response_time_ms,
        session=session,
    )
