"""The fleet control plane: registry + admission + placement + migration.

:class:`FleetController` ties the subsystem together:

1. **Bootstrap** — discovery probe rounds over the device pool populate
   the :class:`~repro.fleet.registry.DeviceRegistry`; each advertisement
   carries the node's *real* queued workload through discovery's
   ``load_probe`` hook, and each registered device heartbeats that same
   gauge thereafter.
2. **Admission** — incoming session requests are admitted, queued or
   rejected against aggregate up-capacity (QoS tiers from
   ``GENRE_PRIORITY``); queued sessions drain whenever capacity appears.
3. **Placement** — admitted sessions get a home node through the Eq. 4
   scheduler generalized to session demand; a periodic control sweep
   rebalances when committed utilization skews.
4. **Migration** — when the heartbeat monitor declares a device lost
   (crash injection via ``repro.faults``), every session homed there is
   re-placed: its GL context state is re-established on the target by a
   high-priority state-replay task (the client-side re-dispatch path of
   PR 1, lifted to per-session granularity), and every stranded frame is
   re-submitted — zero frames lost.
5. **Metrics** — the controller aggregates per-tier response times,
   admission outcomes, migrations and per-device utilization into a
   deterministic report for ``repro.metrics.report``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.session import _check_duration
from repro.devices.profiles import DeviceSpec
from repro.faults.schedule import FaultSchedule, NodeCrash
from repro.fleet.admission import AdmissionController
from repro.fleet.config import FleetConfig
from repro.fleet.node import STATE_PRIORITY, FleetNode, FrameTask
from repro.fleet.placement import SessionPlacer
from repro.fleet.registry import DeviceRegistry, RegisteredDevice
from repro.fleet.session import REPLAY_WARM_FACTOR, FleetSession, SessionRequest
from repro.net.discovery import DiscoveryService
from repro.obs.digest import digest_of
from repro.sim.kernel import Event, Simulator

#: discovery probe deadline per bootstrap round
DISCOVERY_TIMEOUT_MS = 500.0
#: bootstrap probe rounds before serving starts with whatever answered
DISCOVERY_ROUNDS = 3
#: period of the placement/rebalancing sweep
CONTROL_INTERVAL_MS = 500.0
#: GL context snapshot replayed on the target node when a session
#: migrates, as a multiple of the app's nominal per-frame commands
#: (textures, buffers, programs — a bounded working set)
MIGRATION_STATE_FACTOR = 1.5


class FleetController:
    """Serves many concurrent sessions across a shared device pool."""

    def __init__(
        self,
        sim: Simulator,
        pool: Sequence[DeviceSpec],
        config: Optional[FleetConfig] = None,
    ):
        self.sim = sim
        self.config = config or FleetConfig()
        self.config.validate()
        names = [spec.name for spec in pool]
        if len(set(names)) != len(names):
            raise ValueError(f"pool device names must be unique: {names}")
        if not pool:
            raise ValueError("fleet needs at least one pool device")
        self.pool = list(pool)
        self.nodes: Dict[str, FleetNode] = {
            spec.name: FleetNode(
                sim, spec, on_complete=self._on_task_complete
            )
            for spec in pool
        }
        self.registry = DeviceRegistry(sim)
        self.registry.on_lost = self._on_device_lost
        self.registry.on_join = self._on_device_join
        #: controller-owned fleet-wide replay store: the first session of
        #: a title records, every later one of that title serves warm
        self.replay_hub = None
        self.warm_sessions = 0
        self.cold_sessions = 0
        if self.config.replay:
            from repro.replay import ReplayHub

            self.replay_hub = ReplayHub()
        self.admission = AdmissionController(sim, self.config)
        self.placer = SessionPlacer(sim, self.config)

        self.sessions: Dict[str, FleetSession] = {}
        self.active: Dict[str, FleetSession] = {}
        #: active sessions by home node, then session id; kept where a
        #: session's node changes (start, migration, finish) so heartbeat
        #: probes and crash handling never scan ``active``
        self.homed: Dict[str, Dict[str, FleetSession]] = {
            spec.name: {} for spec in pool
        }
        self.finished: List[FleetSession] = []
        self.rejected: List[SessionRequest] = []
        #: steady-state demand committed per device (MP/ms)
        self.committed_mp_per_ms: Dict[str, float] = {
            spec.name: 0.0 for spec in pool
        }
        self.rtt_ms: Dict[str, float] = {}
        self.migrations = 0
        self.crash_migrations = 0
        self.rebalance_migrations = 0
        self.frames_redispatched = 0
        self.peak_concurrency = 0
        #: how long each admitted session streams; the runner sets this
        #: before submitting (an open-ended fleet would carry it per request)
        self._session_duration_ms = 10_000.0
        #: fires once discovery rounds finish; submit sessions after this
        #: to avoid racing an empty registry (the admission queue would
        #: absorb a few early arrivals, but not a whole launch wave)
        self.bootstrapped = sim.event(name="fleet.bootstrapped")
        sim.call_later(0.0, self._bootstrap)
        sim.every(CONTROL_INTERVAL_MS, self._control)
        if self.config.faults is not None:
            self._arm_faults(self.config.faults)
        #: runtime conservation-law checker, armed by ``config.check``
        self.monitor = None
        if self.config.check:
            from repro.check import InvariantMonitor

            self.monitor = InvariantMonitor(sim)
            self.monitor.watch_fleet(self)
            self.monitor.start()

    # -- capacity ------------------------------------------------------------

    @property
    def up_capacity_mp_per_ms(self) -> float:
        return sum(
            self.nodes[d.name].capacity_mp_per_ms
            for d in self.registry.up_devices()
        )

    @property
    def total_committed_mp_per_ms(self) -> float:
        return sum(self.committed_mp_per_ms.values())

    # -- bootstrap: discovery feeds the registry -----------------------------

    def _load_probe(self, spec: DeviceSpec) -> float:
        node = self.nodes[spec.name]
        if node.failed:
            return 1.0  # a dead box never answers; ranked last if raced
        return node.load_fraction

    def _bootstrap(self) -> None:
        discovery = DiscoveryService(
            self.sim,
            responders=self.pool,
            rng=self.sim.stream("fleet.discovery"),
            load_probe=self._load_probe,
        )
        self._probe_round(discovery, 0)

    def _probe_round(self, discovery: DiscoveryService, round_no: int) -> None:
        """Probe for the devices not yet registered, or finish the
        bootstrap once all are, none is left to probe or the rounds run
        out."""
        if (
            round_no < DISCOVERY_ROUNDS
            and len(self.registry.devices) != len(self.pool)
        ):
            discovery.responders = [
                spec for spec in self.pool
                if spec.name not in self.registry.devices
                and not self.nodes[spec.name].failed
            ]
            if discovery.responders:
                done = discovery.probe(timeout_ms=DISCOVERY_TIMEOUT_MS)
                done.on_trigger(self._probed, discovery, done, round_no)
                return
        self.sim.spans.mark(
            "fleet.state", "bootstrap_complete", track="fleet",
            registered=len(self.registry.devices),
        )
        self.bootstrapped.trigger(len(self.registry.devices))

    def _probed(
        self, discovery: DiscoveryService, done: Event, round_no: int
    ) -> None:
        for ad in done.value.ranked():
            node = self.nodes[ad.device.name]
            self.rtt_ms[ad.device.name] = ad.rtt_ms
            self.registry.register(
                ad.device, rtt_ms=ad.rtt_ms,
                probe=self._make_probe(node),
            )
        self._probe_round(discovery, round_no + 1)

    def _make_probe(self, node: FleetNode):
        homed = self.homed[node.name]

        def probe():
            payload = node.heartbeat_payload()
            if payload is None:
                return None
            active = len(homed)
            if self.config.planner:
                # Planner fleets advertise the served titles so the
                # multicast plan candidate can see co-located viewers.
                titles = tuple(homed[sid].app.name for sid in sorted(homed))
                generation = (
                    self.replay_hub.generation()
                    if self.replay_hub is not None
                    else 0
                )
                return payload, active, generation, titles
            if self.replay_hub is not None:
                # Advertise the replay-store generation the device serves
                # from, so the controller can tell stale views apart.
                return payload, active, self.replay_hub.generation()
            return payload, active

        return probe

    def colocation_groups(self) -> Dict[str, int]:
        """Heartbeat-advertised viewers per title (planner fleets)."""
        return self.registry.colocation_groups()

    def _plan_bias_ms(self, session: FleetSession) -> Optional[Dict[str, float]]:
        """Predicted service-stage cost of this title on each live node.

        Only computed for planner fleets: the bias feeds Eq. 4 through
        :class:`DeviceEstimate.plan_bias_ms`, steering a session toward
        the device that renders *its* frames fastest, not just the device
        with the shortest queue.
        """
        if not self.config.planner:
            return None
        from repro.analysis.pipeline_model import predict_service_stage_ms

        return {
            node.name: predict_service_stage_ms(session.app, node.spec)
            for node in self._up_nodes()
        }

    # -- session lifecycle ---------------------------------------------------

    def submit(self, request: SessionRequest) -> str:
        """Offer a session to the fleet; returns the admission outcome."""
        outcome = self.admission.decide(
            request,
            committed_mp_per_ms=self.total_committed_mp_per_ms,
            capacity_mp_per_ms=self.up_capacity_mp_per_ms,
            placeable=not self._pool_dark(),
        )
        self.sim.metrics.counter("fleet.admission", outcome=outcome).inc()
        if self.sim.telemetry is not None:
            # Each decision contributes one 0/1 sample: the reject-rate SLO
            # classifies them directly against its error budget.
            self.sim.telemetry.observe(
                "fleet.rejected",
                1.0 if outcome == "reject" else 0.0,
                tier=request.tier,
            )
        self.sim.spans.mark(
            "fleet.admission", outcome, track="fleet",
            session=request.session_id, tier=request.tier,
        )
        if outcome == "admit":
            self._start_session(request)
        elif outcome == "reject":
            self.rejected.append(request)
        return outcome

    def _start_session(self, request: SessionRequest) -> None:
        session = FleetSession(
            self.sim, request, self.config,
            duration_ms=self._session_duration_ms,
        )
        if self.replay_hub is not None:
            session.replay_warm = self.replay_hub.session_started(
                request.app.name
            )
            if session.replay_warm:
                self.warm_sessions += 1
            else:
                self.cold_sessions += 1
            self.sim.metrics.counter(
                "fleet.replay.sessions",
                kind="warm" if session.replay_warm else "cold",
            ).inc()
        node = self.placer.place(
            session,
            nodes=self._up_nodes(),
            committed_mp_per_ms=self.committed_mp_per_ms,
            rtt_ms=self.rtt_ms,
            plan_bias_ms=self._plan_bias_ms(session),
        )
        self.sessions[session.session_id] = session
        self.active[session.session_id] = session
        self.homed[node.name][session.session_id] = session
        self.committed_mp_per_ms[node.name] = (
            self.committed_mp_per_ms.get(node.name, 0.0)
            + session.demand_mp_per_ms
        )
        self.peak_concurrency = max(self.peak_concurrency, len(self.active))
        self.sim.spans.mark(
            "fleet.placement", "place", track="fleet",
            session=session.session_id, node=node.name, tier=session.tier,
        )
        session.start(node)
        if self.sim.telemetry is not None:
            self.sim.telemetry.observe(
                "fleet.admission_wait_ms",
                self.sim.now - request.arrival_ms,
                tier=request.tier,
            )
        # Watch for the end, after a zero-time start hop.
        self.sim.call_later(
            0.0, session.finished.on_trigger, self._session_done, session
        )

    def _session_done(self, session: FleetSession) -> None:
        self.active.pop(session.session_id, None)
        self.finished.append(session)
        if session.node is not None:
            name = session.node.name
            self.homed[name].pop(session.session_id, None)
            self.committed_mp_per_ms[name] = max(
                0.0,
                self.committed_mp_per_ms.get(name, 0.0)
                - session.demand_mp_per_ms,
            )
        self._drain_admission_queue()

    def set_session_duration(self, duration_ms: float) -> None:
        _check_duration(duration_ms)
        self._session_duration_ms = duration_ms

    def _pool_dark(self) -> bool:
        """Every pool node has crashed.  The registry notices only after
        its heartbeat timeout, so until then its up capacity counts them."""
        return all(node.failed for node in self.nodes.values())

    def _up_nodes(self) -> List[FleetNode]:
        up = [
            self.nodes[d.name] for d in self.registry.up_devices()
            if not self.nodes[d.name].failed
        ]
        if up:
            return up
        # Bootstrap race: admission saw capacity but registration of the
        # remaining devices is still in flight — fall back to any live node.
        return [n for n in self.nodes.values() if not n.failed]

    def _drain_admission_queue(self) -> None:
        if self._pool_dark():
            return  # the queue waits for a node to rejoin
        for request in self.admission.pop_eligible(
            committed_mp_per_ms=self.total_committed_mp_per_ms,
            capacity_mp_per_ms=self.up_capacity_mp_per_ms,
        ):
            self._start_session(request)

    # -- task completion fan-in ----------------------------------------------

    def _on_task_complete(self, task: FrameTask) -> None:
        if task.kind != "frame":
            return
        session = self.sessions.get(task.session_id)
        if session is not None:
            session.on_frame_complete(task)

    # -- membership transitions ----------------------------------------------

    def _on_device_lost(self, dev: RegisteredDevice) -> None:
        node = self.nodes[dev.name]
        stranded = node.strand_all()
        victims = sorted(
            self.homed[dev.name].values(), key=lambda s: s.session_id
        )
        self.committed_mp_per_ms[dev.name] = 0.0
        by_session: Dict[str, List[FrameTask]] = {}
        for task in stranded:
            by_session.setdefault(task.session_id, []).append(task)
        for session in victims:
            try:
                target = self._migrate_session(session, reason="crash")
            except ValueError:
                # Whole pool dark: the session stays homed here, still
                # committed, and the node serves its frames if it rejoins.
                self.committed_mp_per_ms[dev.name] += session.demand_mp_per_ms
                node.restrand(by_session.pop(session.session_id, []))
                continue
            for task in by_session.pop(session.session_id, []):
                session.take_over(task, target)
                self.frames_redispatched += 1
        # Stranded tasks of already-finished sessions (none in practice:
        # a session only finishes once its frames complete).
        for leftovers in by_session.values():
            for task in leftovers:
                if not task.completed:
                    self.frames_redispatched += 1
                    self._up_nodes()[0].submit(task)

    def _on_device_join(self, dev: RegisteredDevice) -> None:
        self._drain_admission_queue()

    def _migrate_session(self, session: FleetSession, reason: str) -> FleetNode:
        """Re-place one session; re-establish its GL state on the target."""
        target = self.placer.place(
            session,
            nodes=self._up_nodes(),
            committed_mp_per_ms=self.committed_mp_per_ms,
            rtt_ms=self.rtt_ms,
            plan_bias_ms=self._plan_bias_ms(session),
        )
        old = session.node.name if session.node is not None else None
        if old is not None and reason != "crash":
            self.committed_mp_per_ms[old] = max(
                0.0,
                self.committed_mp_per_ms.get(old, 0.0)
                - session.demand_mp_per_ms,
            )
        self.committed_mp_per_ms[target.name] = (
            self.committed_mp_per_ms.get(target.name, 0.0)
            + session.demand_mp_per_ms
        )
        # The context snapshot: cached textures, buffers, programs replayed
        # onto the target before any of the session's frames render there.
        state = FrameTask(
            session_id=session.session_id,
            seq=-1,
            fill_megapixels=0.0,
            commands_nominal=int(
                session.app.nominal_commands_per_frame
                * MIGRATION_STATE_FACTOR
            ),
            width=session.app.render_width,
            height=session.app.render_height,
            priority=STATE_PRIORITY,
            issued_at_ms=self.sim.now,
            kind="state",
        )
        target.submit(state)
        if old is not None:
            self.homed[old].pop(session.session_id, None)
        self.homed[target.name][session.session_id] = session
        session.set_node(target)
        session.migrations += 1
        session.last_migration_ms = self.sim.now
        self.migrations += 1
        if reason == "crash":
            self.crash_migrations += 1
        else:
            self.rebalance_migrations += 1
        self.sim.metrics.counter("fleet.migrations", reason=reason).inc()
        if self.sim.telemetry is not None:
            self.sim.telemetry.observe(
                "fleet.migrations", 1.0, agg="count", reason=reason,
            )
        self.sim.spans.mark(
            "fleet.migration", reason, track="fleet",
            session=session.session_id, source=old, target=target.name,
        )
        return target

    # -- the control loop ----------------------------------------------------

    def _control(self) -> None:
        self._drain_admission_queue()
        by_node: Dict[str, List[FleetSession]] = {}
        for s in self.active.values():
            if s.node is not None:
                by_node.setdefault(s.node.name, []).append(s)
        moves = self.placer.plan_rebalance(
            sessions_by_node=by_node,
            nodes=self._up_nodes(),
            committed_mp_per_ms=self.committed_mp_per_ms,
        )
        for move in moves:
            if move.session.session_id not in self.active:
                continue
            self._migrate_session(move.session, reason="rebalance")

    # -- fault injection -----------------------------------------------------

    def _arm_faults(self, schedule: FaultSchedule) -> None:
        schedule.validate()
        for event in schedule.events:
            if not isinstance(event, NodeCrash):
                raise ValueError(
                    f"fleet-level faults support NodeCrash only, got "
                    f"{type(event).__name__}"
                )
            if event.node >= len(self.pool):
                raise ValueError(
                    f"crash names node {event.node} but the pool has "
                    f"{len(self.pool)} devices"
                )
            name = self.pool[event.node].name
            node = self.nodes[name]
            self.sim.call_at(event.at_ms, node.fail)
            if event.rejoin_at_ms is not None:
                self.sim.call_at(event.rejoin_at_ms, node.rejoin)

    # -- metrics -------------------------------------------------------------

    def report(self) -> Dict:
        """Deterministic fleet-level summary (same seed -> same dict)."""
        tiers: Dict[str, Dict] = {}
        for session in sorted(
            self.finished + list(self.active.values()),
            key=lambda s: s.session_id,
        ):
            bucket = tiers.setdefault(
                session.tier,
                {
                    "sessions": 0,
                    "frames": 0,
                    "frames_lost": 0,
                    "migrations": 0,
                    "response_ms_sum": 0.0,
                },
            )
            bucket["sessions"] += 1
            bucket["frames"] += len(session.response_times_ms)
            bucket["frames_lost"] += session.frames_lost
            bucket["migrations"] += session.migrations
            bucket["response_ms_sum"] += sum(session.response_times_ms)
        per_tier = {
            tier: {
                "sessions": b["sessions"],
                "frames": b["frames"],
                "frames_lost": b["frames_lost"],
                "migrations": b["migrations"],
                "mean_response_ms": round(
                    b["response_ms_sum"] / b["frames"], 4
                ) if b["frames"] else 0.0,
            }
            for tier, b in sorted(tiers.items())
        }
        devices = {
            name: {
                "state": self.registry.devices[name].state
                if name in self.registry.devices else "unregistered",
                "frames_served": node.stats.frames_served,
                "state_replays": node.stats.state_replays,
                "busy_ms": round(node.stats.busy_ms, 3),
                "stranded_tasks": node.stats.stranded_tasks,
                "capacity_mp_per_ms": round(node.capacity_mp_per_ms, 4),
            }
            for name, node in sorted(self.nodes.items())
        }
        stats = self.admission.stats
        report = {
            "pool_devices": len(self.pool),
            "registered_devices": len(self.registry.devices),
            "capacity_mp_per_ms": round(self.up_capacity_mp_per_ms, 4),
            "admission": {
                "offered": stats.offered,
                "admitted": stats.admitted,
                "queued": stats.queued,
                "rejected": stats.rejected,
                "dequeued": stats.dequeued,
                "waiting": len(self.admission),
                "by_tier": {
                    t: dict(sorted(v.items()))
                    for t, v in sorted(stats.by_tier.items())
                },
                "mean_wait_ms": round(self.admission.mean_wait_ms, 4),
            },
            "sessions": {
                "finished": len(self.finished),
                "active": len(self.active),
                "peak_concurrency": self.peak_concurrency,
            },
            "migrations": {
                "total": self.migrations,
                "crash": self.crash_migrations,
                "rebalance": self.rebalance_migrations,
                "frames_redispatched": self.frames_redispatched,
            },
            "tiers": per_tier,
            "devices": devices,
        }
        if self.replay_hub is not None:
            report["replay"] = {
                "warm_sessions": self.warm_sessions,
                "cold_sessions": self.cold_sessions,
                "warm_factor": REPLAY_WARM_FACTOR,
                "hub_generation": self.replay_hub.generation(),
            }
        report["digest"] = digest_of(report)
        return report
