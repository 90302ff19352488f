"""End-to-end session orchestration.

``run_local_session`` and ``run_offload_session`` are the top-level entry
points the experiments, examples and benchmarks use: build a simulator,
instantiate the user device and (for offload) the service devices with
their links, transports, multicast group and switching controller, run a
game engine session, and return a :class:`SessionResult` bundling every
metric the paper reports.  Both end in ``sim.teardown()``, where each
component drops the edges it wired, so refcounting frees a finished
session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.apps.base import ApplicationSpec
from repro.apps.engine import EngineConfig, GameEngine
from repro.baselines.local import LocalBackend
from repro.check import DigestLog, InvariantMonitor, Violation
from repro.core.client import GBoosterClient
from repro.core.config import GBoosterConfig
from repro.core.server import ServiceNode
from repro.devices.profiles import DeviceSpec, NVIDIA_SHIELD
from repro.devices.runtime import ServiceDeviceRuntime, UserDeviceRuntime
from repro.faults.injector import FaultInjector
from repro.metrics.energy import EnergyReport, energy_report
from repro.metrics.fps import FpsMetrics, compute_fps_metrics
from repro.net.link import LAN_BLUETOOTH, LAN_WIFI, LinkSpec, NetworkLink
from repro.net.multicast import MulticastGroup
from repro.net.transport import ReliableUdpTransport, TcpTransport, Transport
from repro.obs.telemetry import TelemetryHub, default_session_slos
from repro.sim.kernel import Simulator
from repro.switching.controller import SwitchingController, SwitchingStats
from repro.switching.policies import (
    TRAFFIC_EPOCH_MS,
    AlwaysBluetoothPolicy,
    AlwaysWifiPolicy,
    PlannerPolicy,
    PredictivePolicy,
    ReactivePolicy,
)


@dataclass
class SessionCheck:
    """Correctness artifacts of a ``check``-armed session (repro.check)."""

    digests: DigestLog
    monitor: InvariantMonitor

    @property
    def violations(self) -> List[Violation]:
        return self.monitor.violations

    @property
    def ok(self) -> bool:
        return self.monitor.ok and not self.digests.fidelity_mismatches()


@dataclass
class SessionResult:
    """Everything a session produced."""

    app: ApplicationSpec
    mode: str                          # "local" | "gbooster"
    fps: FpsMetrics
    energy: EnergyReport
    cpu_mean_utilization: float
    gpu_mean_utilization: float
    #: the offloading intermediate time t_p of Eq. 5 (network transmissions
    #: plus image encoding); zero for local execution.
    t_p_ms: float = 0.0
    traffic_samples_mbps: List[float] = field(default_factory=list)
    switching: Optional[SwitchingStats] = None
    client_stats: Optional[object] = None
    engine: Optional[GameEngine] = None
    device: Optional[UserDeviceRuntime] = None
    nodes: List[ServiceNode] = field(default_factory=list)
    #: the armed fault injector (with its applied-fault log) when the
    #: config carried a :class:`~repro.faults.schedule.FaultSchedule`.
    faults: Optional[FaultInjector] = None
    #: digests + invariant monitor when ``config.check`` was set.
    check: Optional[SessionCheck] = None
    #: the armed :class:`~repro.obs.telemetry.TelemetryHub` (series, SLO
    #: trackers, alerts) when ``config.telemetry`` was set.
    telemetry: Optional[TelemetryHub] = None
    #: the client's :class:`~repro.replay.ReplaySession` when
    #: ``config.replay`` was set (protocol stats + the title store).
    replay: Optional[object] = None
    #: the armed :class:`~repro.obs.causal.CausalLog` when
    #: ``config.causal_tracing`` was set.
    causal: Optional[object] = None
    #: the armed :class:`~repro.obs.flight.FlightRecorder` (frozen
    #: postmortem bundles) when ``config.flight_recorder`` was set.
    flight: Optional[object] = None

    @property
    def response_time_ms(self) -> float:
        """Average response time per the paper's Eq. 5.

        ``t_r = 1000/FPS + t_p`` — the frame interval the player waits for
        a result, plus the offloading intermediate steps.  (The engine also
        measures raw issue-to-presentation latency in ``fps.mean_response_ms``,
        which additionally includes pipeline occupancy.)
        """
        if self.fps.median_fps <= 0:
            return float("inf")
        return 1000.0 / self.fps.median_fps + self.t_p_ms


def _make_transport(sim: Simulator, config: GBoosterConfig, name: str) -> Transport:
    cls = ReliableUdpTransport if config.transport == "rudp" else TcpTransport
    return cls(sim, name=name, rto_ms=config.rto_ms)


def _make_planner_policy(
    sim: Simulator,
    app: ApplicationSpec,
    user_device: DeviceSpec,
    service_devices: Sequence[DeviceSpec],
    config: GBoosterConfig,
    telemetry: Optional[TelemetryHub],
    seed: int,
) -> PlannerPolicy:
    """Build the plan stack for ``switching_policy="planner"``.

    The planner probes every viable backend for this session's context
    and the policy keeps the radio on the committed plan, re-probing when
    the live ``frame_response_ms`` series drifts off the probed baseline.
    """
    from repro.plan import SessionContext, SessionPlanner

    ctx = SessionContext(
        app=app,
        user_device=user_device,
        service_device=service_devices[0] if service_devices else None,
        fusion_enabled=config.fusion_enabled,
        config=config,
    )
    planner = SessionPlanner(ctx, seed=seed, sim=sim)

    def latest_latency() -> Optional[float]:
        if telemetry is None:
            return None
        series = telemetry.bank.series(
            "frame_response_ms", agg="mean", device=user_device.name
        )
        points = series.points()
        return points[-1][1] if points else None

    return PlannerPolicy(planner, latency_source=latest_latency)


def _make_policy(config: GBoosterConfig):
    if config.switching_policy == "predictive":
        return PredictivePolicy(n_inputs=2)
    if config.switching_policy == "reactive":
        return ReactivePolicy()
    if config.switching_policy == "always_bluetooth":
        return AlwaysBluetoothPolicy()
    return AlwaysWifiPolicy()


def _check_duration(duration_ms: float) -> None:
    """A session must end: its duration is finite and positive."""
    if not (math.isfinite(duration_ms) and duration_ms > 0):
        raise ValueError(
            f"duration_ms must be finite and positive, got {duration_ms!r}"
        )


def run_local_session(
    app: ApplicationSpec,
    user_device: DeviceSpec,
    duration_ms: float = 60_000.0,
    seed: int = 0,
    config: Optional[GBoosterConfig] = None,
) -> SessionResult:
    """The paper's comparison case: everything on the phone.

    ``config`` is consulted only for the correctness switches (``check``,
    ``deterministic_content``) — the local path has no transport/cache
    pipeline to configure.

    The returned simulator (``result.engine.sim``) is torn down: its
    spans and metrics stay readable, but it cannot run again.
    """
    _check_duration(duration_ms)
    sim = Simulator(seed=seed)
    check: Optional[SessionCheck] = None
    if config is not None and config.check:
        sim.digests = DigestLog()
        monitor = InvariantMonitor(sim)
        monitor.start()
        check = SessionCheck(digests=sim.digests, monitor=monitor)
    device = UserDeviceRuntime(
        sim, user_device,
        render_width=app.render_width, render_height=app.render_height,
    )
    # The paper measures local power in airplane mode (§VII-C).
    device.network.wifi.power_off()
    device.network.bluetooth.power_off()
    backend = LocalBackend(
        sim, device, execute_commands=check is not None
    )
    engine = GameEngine(
        sim, app, device, backend,
        EngineConfig(
            duration_ms=duration_ms,
            deterministic_content=bool(
                config is not None and config.deterministic_content
            ),
        ),
    )
    engine.run(limit=duration_ms * 4)
    if check is not None:
        check.monitor.finalize()
    frames = engine.presented_frames()
    result = SessionResult(
        app=app,
        mode="local",
        fps=compute_fps_metrics(frames),
        energy=energy_report(device),
        cpu_mean_utilization=device.cpu.mean_utilization(),
        gpu_mean_utilization=device.gpu.utilization(),
        engine=engine,
        device=device,
        check=check,
    )
    sim.teardown()
    return result


def run_offload_session(
    app: ApplicationSpec,
    user_device: DeviceSpec,
    service_devices: Optional[Sequence[DeviceSpec]] = None,
    config: Optional[GBoosterConfig] = None,
    duration_ms: float = 60_000.0,
    seed: int = 0,
    replay_hub=None,
    replay_session_id: str = "",
) -> SessionResult:
    """A GBooster session against one or more service devices.

    ``replay_hub`` (a :class:`~repro.replay.ReplayHub`) is the shared
    fleet-wide replay store; passing the same hub to several sessions of
    one title is what makes later sessions replay warm.  With
    ``config.replay`` set and no hub given, the session gets a private
    one (records, but nothing to replay from).  ``replay_session_id``
    distinguishes sessions sharing a hub — a recorder never replays its
    own unverified intervals.

    The returned simulator (``result.engine.sim``) is torn down, so
    refcounting frees the session once its result is dropped: spans,
    metrics, telemetry, flight bundles and check artifacts stay
    readable, but the simulator cannot run again.
    """
    config = config or GBoosterConfig()
    config.validate()
    _check_duration(duration_ms)
    if service_devices is None:
        service_devices = [NVIDIA_SHIELD]
    else:
        service_devices = list(service_devices)
        if not service_devices:
            raise ValueError(
                "service_devices is empty; pass None for the default "
                "service device"
            )
    replay_store = None
    if config.replay:
        from repro.replay import ReplayHub

        hub = replay_hub if replay_hub is not None else ReplayHub()
        replay_store = hub.namespace(app.name)
    sim = Simulator(seed=seed)
    check: Optional[SessionCheck] = None
    monitor: Optional[InvariantMonitor] = None
    if config.check:
        sim.digests = DigestLog()
        monitor = InvariantMonitor(sim)
        check = SessionCheck(digests=sim.digests, monitor=monitor)
    telemetry: Optional[TelemetryHub] = None
    if config.telemetry:
        telemetry = TelemetryHub(
            sim,
            slos=(
                config.slos
                if config.slos is not None
                else default_session_slos()
            ),
        )
    session_id = replay_session_id or f"session-{seed}"
    causal = None
    if config.causal_tracing:
        from repro.obs.causal import CausalLog

        causal = CausalLog(sim, session_id=session_id)
    flight = None
    if config.flight_recorder:
        from repro.obs.flight import FlightRecorder

        flight = FlightRecorder(sim, session_id=session_id)
    device = UserDeviceRuntime(
        sim, user_device,
        render_width=app.render_width, render_height=app.render_height,
    )
    device.network.epoch_ms = TRAFFIC_EPOCH_MS

    # Downlink: one shared transport; frames from any node ride the user's
    # active radio (half-duplex medium) through a per-technology LAN link.
    downlink = _make_transport(sim, config, name="downlink")
    down_links = {
        "wifi": NetworkLink(sim, LAN_WIFI, rng=sim.stream("link.down.wifi")),
        "bluetooth": NetworkLink(
            sim, LAN_BLUETOOTH, rng=sim.stream("link.down.bt")
        ),
    }

    # Service nodes and their uplinks.
    nodes: List[ServiceNode] = []
    uplinks: Dict[str, Transport] = {}
    uplink_links: List[NetworkLink] = []   # node-bound links, for fault injection
    for idx, spec in enumerate(service_devices):
        runtime = ServiceDeviceRuntime(sim, spec)
        rtt_ms = 2.0 * LAN_WIFI.latency_ms
        node = ServiceNode(
            sim,
            runtime,
            config,
            downlink=downlink,
            rtt_ms=rtt_ms,
            account_downlink=device.network.account,
            replay_store=replay_store,
        )
        # Give repeated specs unique names so routing keys stay distinct.
        if spec.name in uplinks:
            node.name = f"{spec.name} #{idx + 1}"
        nodes.append(node)
        uplink = _make_transport(sim, config, name=f"uplink.{node.name}")
        up_links = {
            "wifi": NetworkLink(
                sim, LAN_WIFI, rng=sim.stream(f"link.up.wifi.{idx}")
            ),
            "bluetooth": NetworkLink(
                sim, LAN_BLUETOOTH, rng=sim.stream(f"link.up.bt.{idx}")
            ),
        }
        uplink.bind(
            device.network.radio_provider,
            up_links,
            on_deliver=node.on_frame_message,
        )
        uplinks[node.name] = uplink
        uplink_links.extend(up_links.values())

    # Multicast group for state replication in multi-device mode.
    multicast = None
    if len(nodes) > 1:
        multicast = MulticastGroup(sim, name="state-mcast")
        multicast.bind_radio(device.network.radio_provider)
        for idx, node in enumerate(nodes):
            member_link = NetworkLink(
                sim, LAN_WIFI, rng=sim.stream(f"link.mcast.{idx}")
            )
            member_link.set_receiver(node.on_state_message)
            multicast.join(node.name, member_link)
            uplink_links.append(member_link)

    client = GBoosterClient(
        sim,
        device,
        nodes,
        uplinks,
        config=config,
        multicast=multicast,
        nominal_commands_per_frame=app.nominal_commands_per_frame,
        replay_store=replay_store,
        replay_session_id=replay_session_id or f"session-{seed}",
    )
    downlink.bind(
        device.network.radio_provider,
        down_links,
        on_deliver=client.on_frame_delivered,
    )

    # Arm the declarative fault scenario, if the config carries one.
    injector: Optional[FaultInjector] = None
    if config.faults:
        injector = FaultInjector(
            sim,
            config.faults,
            nodes=nodes,
            client=client,
            uplink_links=uplink_links,
            downlink_links=list(down_links.values()),
            network=device.network,
        )
        injector.arm()

    # Interface switching, fed by touch frequency + textures per frame (the
    # AIC-selected exogenous attributes).
    engine_holder: List[GameEngine] = []

    def exogenous() -> List[float]:
        if not engine_holder or not engine_holder[0].frames:
            return [0.0, 0.0]
        recent = engine_holder[0].frames[-1]
        return [float(recent.touches_since_last), float(recent.texture_count)]

    if config.switching_policy == "planner":
        policy = _make_planner_policy(
            sim, app, user_device, service_devices, config, telemetry, seed
        )
    else:
        policy = _make_policy(config)
    controller = SwitchingController(
        sim,
        device.network,
        policy,
        exogenous_source=exogenous,
    )
    # Start on Bluetooth when a policy can raise WiFi on demand (the
    # planner raises whichever radio its committed plan rides).
    if config.switching_policy in (
        "predictive", "reactive", "always_bluetooth", "planner"
    ):
        device.network.use("bluetooth")
        device.network.power_down_idle()

    if monitor is not None:
        monitor.watch_client(client)
        monitor.watch_transports([downlink, *uplinks.values()])
        monitor.watch_pipeline(client.pipeline)
        monitor.start()

    # Flight-recorder evidence sources: sampled at trigger time, so the
    # frozen bundle carries the plan decision log, the replay protocol
    # ledger and the client's byte accounting as of the trigger instant.
    if flight is not None:
        if config.switching_policy == "planner":
            planner = policy.planner

            def plan_log():
                return [d.to_dict() for d in planner.history]

            flight.add_source("plan_decisions", plan_log)
        if client.replay is not None:
            replay_session = client.replay
            flight.add_source(
                "replay_stats", lambda: replay_session.stats.as_dict()
            )
        client_stats = client.stats
        flight.add_source(
            "client_stats",
            lambda: {
                "frames_submitted": client_stats.frames_submitted,
                "frames_presented": client_stats.frames_presented,
                "uplink_bytes": client_stats.uplink_bytes,
                "downlink_bytes": client_stats.downlink_bytes,
                "trace_header_bytes": client.pipeline.total_trace,
                "failovers": client_stats.failovers,
            },
        )

    engine = GameEngine(
        sim, app, device, client,
        EngineConfig(
            duration_ms=duration_ms,
            deterministic_content=config.deterministic_content,
        ),
    )
    engine_holder.append(engine)
    engine.run(limit=duration_ms * 4)
    if monitor is not None:
        monitor.finalize()
    if telemetry is not None:
        telemetry.finalize()
    if client.replay is not None:
        client.replay.close()   # release this session's store pins
    frames = engine.presented_frames()

    # t_p (Eq. 5): mean uplink delivery + mean downlink delivery + mean
    # service-side encode time — the "offloading intermediate steps".
    up_lat = [
        lat
        for t in uplinks.values()
        for lat in t.stats.delivery_latencies_ms
    ]
    down_lat = downlink.stats.delivery_latencies_ms
    frames_rendered = sum(n.stats.frames_rendered for n in nodes)
    encode_mean = (
        sum(n.stats.encode_ms_total for n in nodes) / frames_rendered
        if frames_rendered
        else 0.0
    )
    t_p = (
        (sum(up_lat) / len(up_lat) if up_lat else 0.0)
        + (sum(down_lat) / len(down_lat) if down_lat else 0.0)
        + encode_mean
    )
    result = SessionResult(
        app=app,
        mode="gbooster",
        fps=compute_fps_metrics(frames),
        energy=energy_report(device),
        cpu_mean_utilization=device.cpu.mean_utilization(),
        gpu_mean_utilization=device.gpu.utilization(),
        t_p_ms=t_p,
        traffic_samples_mbps=device.network.samples_mbps(),
        switching=controller.stats,
        client_stats=client.stats,
        engine=engine,
        device=device,
        nodes=nodes,
        faults=injector,
        check=check,
        telemetry=telemetry,
        replay=client.replay,
        causal=causal,
        flight=flight,
    )
    sim.teardown()
    return result
