"""Multi-user service sharing (paper §VIII, "Towards Multiple Users").

The paper's prototype serves concurrent users in FCFS order and flags the
shortcoming: a fast-paced shooter queued behind a turn-based puzzle game
suffers response-time spikes it cannot afford, while the puzzle player
would never notice a few extra milliseconds.  The proposed fix —
priority-aware scheduling on the service device — is implemented here
(``GBoosterConfig.service_queue_policy = "priority"``) and evaluated by
``run_multiuser_experiment``.

Priorities derive from application interactivity: action games are
time-critical (priority 0), role-playing mid (1), puzzle and non-gaming
apps tolerant (2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.base import ApplicationSpec
from repro.apps.engine import EngineConfig, GameEngine
from repro.core.client import GBoosterClient
from repro.core.config import GBoosterConfig
from repro.core.server import ServiceNode
from repro.core.session import _check_duration
from repro.devices.profiles import DeviceSpec, LG_NEXUS_5, NVIDIA_SHIELD
from repro.devices.runtime import ServiceDeviceRuntime, UserDeviceRuntime
from repro.metrics.fps import FpsMetrics, compute_fps_metrics
from repro.net.link import LAN_BLUETOOTH, LAN_WIFI, NetworkLink
from repro.net.transport import ReliableUdpTransport
from repro.sim.kernel import Simulator

GENRE_PRIORITY = {
    "action": 0.0,
    "roleplaying": 1.0,
    "puzzle": 2.0,
    "app": 2.0,
}


def app_priority(app: ApplicationSpec) -> float:
    """Interactivity class of an application (lower = more urgent)."""
    return GENRE_PRIORITY.get(app.genre, 1.0)


@dataclass
class UserResult:
    app: ApplicationSpec
    fps: FpsMetrics
    priority: float

    @property
    def mean_response_ms(self) -> float:
        return self.fps.mean_response_ms


@dataclass
class MultiUserResult:
    policy: str
    users: List[UserResult] = field(default_factory=list)

    def by_genre(self, genre: str) -> UserResult:
        return next(u for u in self.users if u.app.genre == genre)


class _PriorityClient(GBoosterClient):
    """Client that stamps its application's priority and reply route."""

    def __init__(self, *args, priority: float = 0.0, reply_transport=None,
                 **kwargs):
        super().__init__(*args, **kwargs)
        self.priority = priority
        self.reply_transport = reply_transport

    def submit(self, request, frame):
        request.metadata["priority"] = self.priority
        if self.reply_transport is not None:
            request.metadata["reply_transport"] = self.reply_transport
        return super().submit(request, frame)


def run_multiuser_session(
    apps: Sequence[ApplicationSpec],
    user_device: DeviceSpec = LG_NEXUS_5,
    service_device: DeviceSpec = NVIDIA_SHIELD,
    config: Optional[GBoosterConfig] = None,
    duration_ms: float = 60_000.0,
    seed: int = 0,
    shared_wifi_channel: bool = False,
) -> MultiUserResult:
    """Several users share one service device; returns per-user metrics.

    Each user gets their own phone, engine, client and transports; all
    clients dispatch to the single shared :class:`ServiceNode`, whose queue
    policy comes from the config (FCFS or priority).  With
    ``shared_wifi_channel`` every user's WiFi contends for one 802.11
    channel (CSMA), bounding aggregate throughput the way a real apartment
    access point does.
    """
    config = config or GBoosterConfig()
    config.validate()
    _check_duration(duration_ms)
    if not apps:
        raise ValueError("apps is empty; a multi-user session needs a user")
    sim = Simulator(seed=seed)
    wifi_medium = None
    if shared_wifi_channel:
        from repro.net.interface import SharedMedium

        wifi_medium = SharedMedium(sim, name="apartment-channel")

    runtime = ServiceDeviceRuntime(sim, service_device)
    # The default downlink is never used (every client sets its own reply
    # transport), but the node requires one.
    default_downlink = ReliableUdpTransport(sim, name="downlink.default")
    node = ServiceNode(
        sim, runtime, config, downlink=default_downlink,
        rtt_ms=2.0 * LAN_WIFI.latency_ms,
    )

    engines: List[Tuple[ApplicationSpec, GameEngine, float]] = []
    for idx, app in enumerate(apps):
        device = UserDeviceRuntime(
            sim, user_device,
            render_width=app.render_width, render_height=app.render_height,
        )
        if wifi_medium is not None:
            device.network.wifi.medium = wifi_medium
        # Per-user radios on the shared LAN (distinct seeded links).
        uplink = ReliableUdpTransport(sim, name=f"uplink.{idx}")
        up_links = {
            "wifi": NetworkLink(sim, LAN_WIFI,
                                rng=sim.stream(f"mu.up.wifi.{idx}")),
            "bluetooth": NetworkLink(sim, LAN_BLUETOOTH,
                                     rng=sim.stream(f"mu.up.bt.{idx}")),
        }
        downlink = ReliableUdpTransport(sim, name=f"downlink.{idx}")
        down_links = {
            "wifi": NetworkLink(sim, LAN_WIFI,
                                rng=sim.stream(f"mu.down.wifi.{idx}")),
            "bluetooth": NetworkLink(sim, LAN_BLUETOOTH,
                                     rng=sim.stream(f"mu.down.bt.{idx}")),
        }
        priority = app_priority(app)
        client = _PriorityClient(
            sim, device, [node], {node.name: uplink},
            config=config,
            nominal_commands_per_frame=app.nominal_commands_per_frame,
            priority=priority,
            reply_transport=downlink,
        )
        uplink.bind(
            device.network.radio_provider, up_links,
            on_deliver=node.on_frame_message,
        )
        downlink.bind(
            device.network.radio_provider, down_links,
            on_deliver=client.on_frame_delivered,
        )
        engine = GameEngine(
            sim, app, device, client, EngineConfig(duration_ms=duration_ms)
        )
        engines.append((app, engine, priority))

    # Run until every engine has finished: each finish counts down, from
    # a callback parked after a zero-time start hop.
    done = sim.event(name="multiuser.done")
    remaining = [len(engines)]

    def count_down() -> None:
        remaining[0] -= 1
        if remaining[0] == 0:
            done.trigger()

    for _app, engine, _priority in engines:
        sim.call_later(0.0, engine.finished.on_trigger, count_down)
    sim.run_until_event(done, limit=duration_ms * 6)

    result = MultiUserResult(policy=config.service_queue_policy)
    for app, engine, priority in engines:
        result.users.append(
            UserResult(
                app=app,
                fps=compute_fps_metrics(engine.presented_frames()),
                priority=priority,
            )
        )
    sim.teardown()
    return result


def run_multiuser_experiment(
    interactive_app: ApplicationSpec,
    tolerant_app: ApplicationSpec,
    duration_ms: float = 60_000.0,
    seed: int = 0,
) -> Dict[str, MultiUserResult]:
    """The §VIII scenario: a shooter and a puzzle game share one console,
    under FCFS and under priority scheduling."""
    out: Dict[str, MultiUserResult] = {}
    for policy in ("fcfs", "priority"):
        out[policy] = run_multiuser_session(
            [interactive_app, tolerant_app],
            config=GBoosterConfig(service_queue_policy=policy),
            duration_ms=duration_ms,
            seed=seed,
        )
    return out
