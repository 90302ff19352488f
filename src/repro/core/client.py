"""The GBooster client runtime (paper Fig 2 left half, §IV-B, §VI).

Sits behind the wrapper library on the user device.  Per frame it:

1. runs the intercepted command batch through the egress pipeline
   (serialize, defer vertex pointers, LRU-cache, LZ4 — §IV-B/§V-A);
2. in multi-device mode, splits the batch: state-mutating commands are
   multicast to every node, draw commands go to the node Eq. 4 selects
   (§VI-B/C);
3. ships bytes over the reliable-UDP transport riding whichever radio the
   switching controller has made active (§V-B);
4. reassembles returning frames, restores sequence order, and triggers the
   engine's completion events — the rewritten SwapBuffer's non-blocking
   contract (§VI-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from repro.check.digest import command_digest
from repro.codec.frames import FrameImage
from repro.codec.pipeline import (
    REPLAY_HEADER_BYTES,
    CommandPipeline,
    PipelineConfig,
)
from repro.core import costs
from repro.core.config import GBoosterConfig
from repro.core.server import ServiceNode, base_fill
from repro.devices.runtime import UserDeviceRuntime
from repro.dispatch.consistency import split_for_replication
from repro.dispatch.reorder import ReorderBuffer
from repro.dispatch.scheduler import (
    DeviceEstimate,
    DispatchScheduler,
    RoundRobinScheduler,
)
from repro.gpu.model import CompletedRender, RenderRequest
from repro.net.message import Message
from repro.net.multicast import MulticastGroup
from repro.net.transport import Transport
from repro.sim.kernel import Event, Simulator

#: adaptive quality: the smoothed frame latency above which the render
#: scale steps down, and below which it steps back up
ADAPTIVE_LATENCY_HIGH_MS = 55.0
ADAPTIVE_LATENCY_LOW_MS = 32.0


@dataclass
class ClientStats:
    frames_submitted: int = 0
    frames_presented: int = 0
    uplink_bytes: int = 0
    downlink_bytes: int = 0
    raw_command_bytes: int = 0
    state_bytes_multicast: int = 0
    failovers: int = 0
    nodes_failed: int = 0

    def traffic_reduction(self) -> float:
        if self.raw_command_bytes == 0:
            return 0.0
        return 1.0 - self.uplink_bytes / self.raw_command_bytes


class GBoosterClient:
    """The engine-facing offload backend."""

    uses_local_driver = False

    def __init__(
        self,
        sim: Simulator,
        device: UserDeviceRuntime,
        nodes: Sequence[ServiceNode],
        uplinks: Dict[str, Transport],
        config: Optional[GBoosterConfig] = None,
        multicast: Optional[MulticastGroup] = None,
        nominal_commands_per_frame: int = 0,
        replay_store=None,
        replay_session_id: str = "",
    ):
        if not nodes:
            raise ValueError("GBooster needs at least one service device")
        self.sim = sim
        self.device = device
        self.nodes = list(nodes)
        self.uplinks = dict(uplinks)
        self.nominal_commands_per_frame = nominal_commands_per_frame
        self.config = config or GBoosterConfig()
        self.config.validate()
        self.multicast = multicast
        self.max_pending = self.config.pipeline_depth()
        self.pipeline = CommandPipeline(
            PipelineConfig(
                cache_enabled=self.config.cache_enabled,
                cache_capacity=self.config.cache_capacity,
                compression_enabled=self.config.compression_enabled,
                modelled_compression=self.config.modelled_compression,
                fusion_enabled=self.config.fusion_enabled,
            ),
            spans=sim.spans,
            clock=lambda: sim.now,
        )
        if self.config.scheduler == "eq4":
            self.scheduler = DispatchScheduler(on_assign=self._on_assign)
        else:
            self.scheduler = RoundRobinScheduler(on_assign=self._on_assign)
        sim.on_teardown(setattr, self.scheduler, "on_assign", None)
        self.reorder = ReorderBuffer(max_held=64)
        # Record-once / replay-many fast path (repro.replay).  Multi-device
        # mode keeps the full pipeline: the state-replication split needs
        # the real command batch on the wire for every node.
        self.replay = None
        if replay_store is not None and len(self.nodes) == 1:
            from repro.replay.session import ReplaySession

            self.replay = ReplaySession(
                replay_store, session_id=replay_session_id or "session"
            )
        self.stats = ClientStats()
        self._completions: Dict[int, Event] = {}
        self._failed_nodes: set = set()
        #: in-flight remote requests by id, so a node failure can re-dispatch
        #: every request stranded on it instead of letting each one ride out
        #: its own watchdog timeout; pruned at presentation.
        self._outstanding: Dict[int, RenderRequest] = {}
        #: when each node last answered: an ACK on its uplink or a frame
        #: it rendered delivered on the downlink
        self._heard_at: Dict[str, float] = {}
        for name, uplink in self.uplinks.items():
            uplink.on_ack = partial(self._heard_from, name)
        # Adaptive quality state: current resolution scale and a smoothed
        # completion-latency estimate driving the up/down decisions.
        self.quality_scale = 1.0
        self._latency_ewma_ms: Optional[float] = None
        self._frames_since_scale_change = 0
        self.quality_changes: List[tuple] = []

    def _on_assign(self, workload: float, chosen) -> None:
        """Scheduler observer: dispatch marks + per-node assignment counts."""
        self.sim.spans.mark(
            "dispatch", "assign", track="client",
            node=chosen.name, workload_mp=round(workload, 4),
        )
        self.sim.metrics.counter(f"dispatch.assignments.{chosen.name}").inc()

    # -- GraphicsBackend interface ------------------------------------------------

    @property
    def multi_device(self) -> bool:
        return len(self.nodes) > 1

    def cpu_overhead_ms(self, frame: FrameImage) -> float:
        """Per-frame client CPU on the engine thread (reference-CPU ms).

        In multi-device mode per-node worker threads absorb serialization
        and decoding, leaving only dispatch bookkeeping on the engine
        thread — which is what lets generation reach the Fig 7 rates.
        """
        if self.multi_device:
            return costs.DISPATCH_MS_MULTI
        nominal = self.nominal_commands_per_frame
        serialize_ms = nominal * costs.SERIALIZE_US_PER_COMMAND / 1000.0
        decode_fraction = 0.35 + 0.65 * frame.change_fraction
        decode_ms = (
            frame.pixels * decode_fraction / (costs.DECODE_MP_PER_S * 1000.0)
        )
        return serialize_ms + decode_ms + costs.DISPATCH_MS

    # -- adaptive quality ---------------------------------------------------------

    def _apply_quality_scale(
        self, request: RenderRequest, frame: FrameImage
    ) -> FrameImage:
        """Scale the offload render resolution by the current factor.

        Fill workload scales with pixel count; encode/decode/transmission
        costs follow through the smaller frame descriptor.
        """
        scale = self.quality_scale
        if scale >= 0.999:
            return frame
        request.width = max(160, int(request.width * scale))
        request.height = max(120, int(request.height * scale))
        request.fill_megapixels *= scale * scale
        return FrameImage(
            width=request.width,
            height=request.height,
            change_fraction=frame.change_fraction,
            detail=frame.detail,
        )

    def _update_quality(self, latency_ms: float) -> None:
        cfg = self.config
        if self._latency_ewma_ms is None:
            self._latency_ewma_ms = latency_ms
        else:
            self._latency_ewma_ms = (
                0.85 * self._latency_ewma_ms + 0.15 * latency_ms
            )
        self._frames_since_scale_change += 1
        if self._frames_since_scale_change < 30:
            return  # let the pipeline settle between adjustments
        if (
            self._latency_ewma_ms > ADAPTIVE_LATENCY_HIGH_MS
            and self.quality_scale > cfg.adaptive_min_scale
        ):
            self.quality_scale = max(
                cfg.adaptive_min_scale, self.quality_scale - 0.15
            )
            self._frames_since_scale_change = 0
            self.quality_changes.append((self.sim.now, self.quality_scale))
        elif (
            self._latency_ewma_ms < ADAPTIVE_LATENCY_LOW_MS
            and self.quality_scale < 1.0
        ):
            self.quality_scale = min(1.0, self.quality_scale + 0.15)
            self._frames_since_scale_change = 0
            self.quality_changes.append((self.sim.now, self.quality_scale))

    def submit(self, request: RenderRequest, frame: FrameImage) -> Event:
        cfg = self.config
        if cfg.adaptive_quality:
            frame = self._apply_quality_scale(request, frame)
            request.metadata["submitted_at"] = self.sim.now
        record = request.metadata.get("record")
        nominal = max(
            record.nominal_command_count if record is not None else 0,
            self.nominal_commands_per_frame,
            len(request.commands),
        )
        request.metadata["nominal_commands"] = nominal
        metrics = self.sim.metrics
        #: the frame's wire-propagated causal identity (engine-stamped)
        trace = request.metadata.get("trace")

        # 0. Replay fast path: a known interval ships as digest + delta.
        decision = None
        if self.replay is not None:
            decision = self.replay.classify(request.commands)

        if decision is not None and decision.action == "serve":
            entry = decision.entry
            expect = command_digest(request.commands)
            egress = self.pipeline.process_frame(
                [],
                frame_id=request.frame_id,
                parent=request.metadata.get("frame_span"),
                replay_patch=decision.patch,
                replay_digest=decision.digest,
                replay_expect=expect,
                replay_variant=decision.variant,
                trace=trace,
            )
            # The header is interval-length-invariant; only the patch
            # grows with the nominal stream.  Trace-context bytes are
            # fixed-size header like the replay marker — added after
            # scaling, and charged against the fast path's savings.
            scale = nominal / max(1, len(request.commands))
            wire_bytes = (
                max(
                    64,
                    REPLAY_HEADER_BYTES + int(len(decision.patch) * scale),
                )
                + egress.trace_bytes
            )
            raw_bytes = entry.raw_bytes
            nominal = max(1, int(decision.changed_commands * scale))
            request.metadata["nominal_commands"] = nominal
            request.metadata["replay"] = {
                "digest": decision.digest,
                "patch": decision.patch,
                "expect": expect,
                "promote": decision.promote,
                "variant": decision.variant,
                "full_wire_bytes": entry.wire_bytes,
                "full_nominal": entry.nominal_commands,
            }
            self.replay.stats.saved_wire_bytes += max(
                0, entry.wire_bytes - wire_bytes
            )
            metrics.counter("replay.hits").inc()
            metrics.counter("replay.bytes_saved").inc(
                max(0, entry.wire_bytes - wire_bytes)
            )
            if self.sim.telemetry is not None:
                self.sim.telemetry.observe(
                    "replay.hits", 1.0, agg="count",
                )
        else:
            # 1. Egress pipeline on the real (subsampled) command batch.
            egress = self.pipeline.process_frame(
                list(request.commands),
                frame_id=request.frame_id,
                parent=request.metadata.get("frame_span"),
                trace=trace,
            )
            # Extrapolate per-command wire cost over the *emitted* stream:
            # fusion-dropped commands were part of the frame, so they count
            # in the denominator or the savings would be scaled away.  The
            # trace header is fixed-size and scale-invariant — added after
            # scaling, never multiplied by nominal/emitted.
            emitted = egress.commands + egress.fused_dropped
            scale = nominal / max(1, emitted)
            wire_bytes = max(64, int(egress.wire_bytes * scale)) + egress.trace_bytes
            raw_bytes = int(egress.raw_bytes * scale)
            if decision is not None and decision.action == "record":
                self.replay.commit_record(
                    decision,
                    wire_bytes=wire_bytes,
                    raw_bytes=raw_bytes,
                    nominal_commands=nominal,
                )
                metrics.counter("replay.records").inc()
                metrics.gauge("replay.store_bytes").set(
                    self.replay.store.bytes_stored
                )
                metrics.gauge("replay.cache_bytes").set(
                    self.pipeline.cache.sender.byte_size()
                )
        self.stats.raw_command_bytes += raw_bytes
        metrics.counter("cache.hits").inc(egress.cache_hits)
        metrics.counter("cache.misses").inc(
            max(0, egress.commands - egress.cache_hits)
        )
        metrics.gauge("cache.hit_rate").set(self.pipeline.cache.hit_rate)
        if self.sim.telemetry is not None:
            self.sim.telemetry.observe(
                "cache.hit_rate", self.pipeline.cache.hit_rate, agg="last",
            )

        # 2. Choose the execution node (Eq. 4 over live, healthy estimates).
        healthy = [
            n for n in self.nodes if n.name not in self._failed_nodes
        ]
        if not healthy:
            # Every service device is gone: render this frame locally.
            return self._render_locally(request)
        estimates = [
            DeviceEstimate(
                node.name,
                node.queued_workload_mp,
                node.capability_mp_per_ms(request),
                node.rtt_ms,
            )
            for node in healthy
        ]
        chosen = self.scheduler.choose(request.fill_megapixels, estimates)
        node = next(n for n in healthy if n.name == chosen.name)

        # 3. State replication for multi-device consistency (§VI-B).
        state_fraction = 0.0
        if self.multi_device and self.multicast is not None:
            replicated, assigned_only = split_for_replication(
                list(request.commands)
            )
            state_fraction = len(replicated) / max(1, len(request.commands))
            state_bytes = max(32, int(wire_bytes * state_fraction))
            draw_bytes = max(32, wire_bytes - state_bytes)
            state_msg = Message.of_size(
                state_bytes, kind="state",
                nominal_commands=int(nominal * state_fraction),
            )
            state_msg.message_id = self.sim.next_message_id()
            self.device.network.account(state_bytes)
            self.stats.state_bytes_multicast += state_bytes
            self.multicast.send(state_msg)
        else:
            draw_bytes = wire_bytes

        # 4. Ship the frame request to the chosen node.
        completion = self.sim.event(name=f"gbooster.done.{request.request_id}")
        self._completions[request.request_id] = completion
        message = Message.of_size(draw_bytes, kind="frame_request")
        message.message_id = self.sim.next_message_id()
        message.metadata["request"] = request
        message.metadata["frame_desc"] = frame
        message.metadata["nominal_commands"] = (
            int(nominal * (1.0 - state_fraction))
            if self.multi_device
            else nominal
        )
        message.metadata["node"] = node.name
        request.metadata["node"] = node.name
        request.metadata["wire_message"] = message
        self._outstanding[request.request_id] = request
        self.device.network.account(draw_bytes)
        self.stats.uplink_bytes += wire_bytes  # draws + replicated state
        self.uplinks[node.name].send(message)
        self.stats.frames_submitted += 1
        self._watch_for_timeout(request, node, completion)
        return completion

    # -- failure handling ----------------------------------------------------------

    def mark_failed(self, node_name: str, cause: str = "injected") -> None:
        """Exclude a node from dispatch and rescue the work stranded on it.

        Called by the frame watchdog when a node goes silent; also the
        public entry point for anything that learns of a failure out of
        band (discovery, fault injection with an oracle).
        """
        if node_name in self._failed_nodes or not any(
            n.name == node_name for n in self.nodes
        ):
            return
        self._failed_nodes.add(node_name)
        self.stats.nodes_failed += 1
        self.sim.spans.mark(
            "client", "node_failed", node=node_name, cause=cause,
        )
        stranded = [
            r for r in self._outstanding.values()
            if r.metadata.get("node") == node_name
            and not r.metadata.get("arrived")
        ]
        for request in stranded:
            self._redispatch(request)

    def mark_recovered(self, node_name: str) -> None:
        """Re-admit a rejoined node to dispatch."""
        if node_name in self._failed_nodes:
            self._failed_nodes.discard(node_name)
            self.sim.spans.mark("client", "node_recovered", node=node_name)

    def _heard_from(
        self, node_name: str, message: Optional[Message] = None
    ) -> None:
        self._heard_at[node_name] = self.sim.now

    def _watch_for_timeout(self, request: RenderRequest, node, completion: Event) -> None:
        """A frame unanswered past the deadline marks its node failed; its
        stranded work re-dispatches to a surviving node, or the local GPU
        when none remains — gameplay degrades, never freezes.

        A frame held up by loss recovery is late because of loss, not
        because its node died: its request is not yet delivered in order
        on the uplink, or the downlink holds later frames behind a lost
        one.  If the node also answered anything during the window, the
        watchdog waits another window instead of condemning it.  A silent
        node (crash, outage) answers nothing and holds up no loss
        recovery, so it fails over when its first window ends, as it
        always did.

        The watchdog is one callback per window, re-armed with that
        window's start time."""
        self.sim.call_later(
            self.config.frame_timeout_ms, self._watchdog_expired,
            request, node, completion, self.sim.now,
        )

    def _watchdog_expired(
        self,
        request: RenderRequest,
        node,
        completion: Event,
        window_start: float,
    ) -> None:
        # Arrival, not presentation: a frame can sit in the reorder buffer
        # behind a *different* node's failure — its own node is healthy
        # and must not be condemned for that.
        if completion.triggered or request.metadata.get("arrived"):
            return
        if request.metadata.get("node") != node.name:
            return  # already re-dispatched; the new assignment owns it
        message = request.metadata.get("wire_message")
        if message is not None and self._heard_at.get(
            node.name, -1.0
        ) >= window_start:
            uplink = self.uplinks[node.name]
            downlink = request.metadata.get("reply_transport", node.downlink)
            if not uplink.delivered(message) or downlink.reorder_held():
                # Held up by loss recovery on a node that answered during
                # the window: wait another window.
                self.sim.call_later(
                    self.config.frame_timeout_ms, self._watchdog_expired,
                    request, node, completion, self.sim.now,
                )
                return
        self.mark_failed(node.name, cause="frame_timeout")
        if (
            request.metadata.get("node") == node.name
            and not completion.triggered
            and not request.metadata.get("arrived")
        ):
            # The node was already marked failed, so mark_failed did not
            # sweep this request up — rescue it directly.
            self._redispatch(request)

    def _redispatch(self, request: RenderRequest) -> None:
        """Move a stranded in-flight request off its failed node."""
        self.stats.failovers += 1
        healthy = [
            n for n in self.nodes if n.name not in self._failed_nodes
        ]
        message: Optional[Message] = request.metadata.get("wire_message")
        if not healthy or message is None:
            request.metadata["node"] = None
            self._local_failover(request)
            return
        estimates = [
            DeviceEstimate(
                n.name,
                n.queued_workload_mp,
                n.capability_mp_per_ms(request),
                n.rtt_ms,
            )
            for n in healthy
        ]
        # The failed node inflated the fill on arrival; weigh the request
        # as a fresh dispatch would.
        chosen = self.scheduler.choose(base_fill(request), estimates)
        node = next(n for n in healthy if n.name == chosen.name)
        request.metadata["node"] = node.name
        message.metadata["node"] = node.name
        self.sim.spans.mark(
            "client", "redispatch",
            node=node.name, request_id=request.request_id,
        )
        # The re-sent bytes are offered load like any other transmission.
        self.device.network.account(message.size_bytes)
        self.stats.uplink_bytes += message.size_bytes
        self.uplinks[node.name].send(message)
        completion = self._completions.get(request.request_id)
        if completion is not None:
            self._watch_for_timeout(request, node, completion)

    def _local_failover(self, request: RenderRequest) -> None:
        """Render a stranded request on the device's own GPU."""
        self.device.gpu.submit(
            request, partial(self._rendered_locally, request)
        )

    def _render_locally(self, request: RenderRequest) -> Event:
        """All-nodes-failed path: the request runs on the device's own GPU."""
        completion = self.sim.event(name=f"gbooster.local.{request.request_id}")
        self._completions[request.request_id] = completion
        self.device.gpu.submit(
            request, partial(self._rendered_locally, request)
        )
        self.stats.frames_submitted += 1
        self.stats.failovers += 1
        return completion

    def _rendered_locally(
        self, request: RenderRequest, done: CompletedRender
    ) -> None:
        self.device.gpu.mark_render(done)
        # A hop behind what is due now and ahead of the GPU's next
        # request, where a callback parked on the render would run.
        self.sim.call_later(0.0, self._complete_request, request)

    # -- downlink ------------------------------------------------------------------------

    def on_frame_delivered(self, message: Message) -> None:
        """Receiver callback for the downlink transport."""
        request: RenderRequest = message.metadata["request"]
        request.metadata["arrived"] = True
        request.metadata["arrived_at"] = self.sim.now
        node_name = message.metadata.get("node")
        if node_name is not None:
            self._heard_from(node_name)
        self.stats.downlink_bytes += message.size_bytes
        # Demand accounting happened node-side at send time; counting again
        # here would double the offered load the switching policy sees.
        self._complete_request(request)

    def _complete_request(self, request: RenderRequest) -> None:
        """In-order presentation, shared by the remote and failover paths.

        Duplicates (a late remote frame after a local failover render, or a
        spurious retransmission) are absorbed by the reorder buffer.
        """
        for seq, req in self.reorder.push(request.request_id, request):
            self._outstanding.pop(seq, None)
            # Only re-dispatch of an outstanding frame reads the wire
            # message, and it points back at the request.
            req.metadata.pop("wire_message", None)
            event = self._completions.pop(seq, None)
            if event is not None and not event.triggered:
                event.trigger(req)
            self.stats.frames_presented += 1
            outcome = req.metadata.pop("replay_outcome", None)
            if outcome is not None and self.replay is not None:
                if outcome == "promoted":
                    self.replay.note_promotion()
                    self.sim.metrics.counter("replay.promotions").inc()
                elif outcome == "diverged":
                    # The fast path failed for this frame: the full batch
                    # was (re)transmitted, so re-pay its uplink bytes.
                    self.replay.note_divergence()
                    full = req.metadata.get("replay", {}).get(
                        "full_wire_bytes", 0
                    )
                    self.stats.uplink_bytes += full
                    self.device.network.account(full)
                    self.sim.metrics.counter("replay.demotions").inc()
                    self.sim.metrics.counter("replay.fallbacks").inc()
            self.device.surface.attach_back(None)
            # "present": downlink arrival -> in-order release; zero for
            # frames already in order, the reorder-buffer wait otherwise.
            arrived = req.metadata.get("arrived_at", self.sim.now)
            root = req.metadata.get("frame_span")
            trace = req.metadata.get("trace")
            trace_id = trace.trace_id if trace is not None else None
            extra = {"trace_id": trace_id} if trace_id else {}
            self.sim.spans.add(
                "client", "present", arrived, self.sim.now,
                track="client", frame_id=req.frame_id,
                parent=root.qualified_name if root is not None else None,
                depth=root.depth + 1 if root is not None else 0,
                **extra,
            )
            self.sim.metrics.histogram("client.frame_response_ms").observe(
                self.sim.now - req.issued_at, trace_id=trace_id
            )
            if self.sim.telemetry is not None:
                self.sim.telemetry.observe(
                    "frame_response_ms", self.sim.now - req.issued_at,
                    trace_id=trace_id,
                    device=self.device.spec.name,
                )
                self.sim.telemetry.observe(
                    "frames_presented", 1.0, agg="count",
                    device=self.device.spec.name,
                )
            if self.config.adaptive_quality:
                submitted = req.metadata.get("submitted_at")
                if submitted is not None:
                    self._update_quality(self.sim.now - submitted)
