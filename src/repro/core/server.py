"""The service-device daemon (paper §IV-C, Fig 2 right half).

A :class:`ServiceNode` receives forwarded command batches, decompresses and
replays them into its local GL context, feeds the render to its GPU, Turbo-
encodes the result, and ships the frame back.  The whole per-frame path is
serialized within one node — a single GL context executes requests
non-preemptively — which is exactly why spreading frames across *several*
nodes raises throughput (§VI).  The daemon runs as callbacks: one timer
per real delay (decode, replay fallback, encode) and the GPU's completion
callback; it takes its next item where the work item before it ends.

Work items:

* ``state`` — replicated state-mutating commands: decompress + replay only;
  every node processes every frame's state batch to stay consistent.
* ``frame`` — an assigned rendering request: decompress + replay + GPU
  render + encode + downlink.

Per-frame costs come from :mod:`repro.core.costs`: reference-CPU
milliseconds scaled by the node CPU's ``perf_index``; x86 nodes pay the
OpenGL ES emulator's per-command translation tax (§IV-C) but encode much
faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from itertools import count
from typing import Callable, List, Optional, Tuple

from repro.codec.frames import FrameImage
from repro.codec.turbo import EncodedFrame, TurboEncoder
from repro.core import costs
from repro.core.config import GBoosterConfig
from repro.devices.runtime import ServiceDeviceRuntime
from repro.gpu.model import CompletedRender, RenderRequest
from repro.net.message import Message
from repro.net.transport import Transport
from repro.sim.kernel import Simulator


@dataclass
class ServiceWorkItem:
    kind: str                          # "state" | "frame"
    commands_nominal: int
    request: Optional[RenderRequest] = None
    frame_desc: Optional[FrameImage] = None
    received_at: float = 0.0
    #: lower values are served first under the "priority" queue policy;
    #: state batches are always most urgent (cheap, needed by all users).
    priority: float = 0.0


@dataclass
class NodeStats:
    state_batches: int = 0
    frames_rendered: int = 0
    replay_ms_total: float = 0.0
    encode_ms_total: float = 0.0
    gpu_ms_total: float = 0.0
    bytes_returned: int = 0
    # record-once / replay-many fast path (repro.replay)
    replay_hits: int = 0
    replay_fallbacks: int = 0
    replay_ms_saved: float = 0.0


class ServiceNode:
    """One offloading destination."""

    def __init__(
        self,
        sim: Simulator,
        runtime: ServiceDeviceRuntime,
        config: GBoosterConfig,
        downlink: Transport,
        rtt_ms: float,
        account_downlink: Optional[Callable[[int], None]] = None,
        replay_store=None,
    ):
        self.sim = sim
        self.runtime = runtime
        self.config = config
        self.downlink = downlink
        self.rtt_ms = rtt_ms
        self.account_downlink = account_downlink
        #: shared per-title ReplayStore (the controller-distributed copy);
        #: lets this node serve replay-hit frames from recorded intervals
        self.replay_store = replay_store
        self.name = runtime.spec.name
        #: ``(priority, arrival, item)``: most urgent first under the
        #: "priority" policy; every priority reads 0 under "fcfs"
        self._queue: List[Tuple[float, int, ServiceWorkItem]] = []
        self._arrivals = count()
        self._by_priority = config.service_queue_policy == "priority"
        #: an item is being served, or is about to be
        self._busy = False
        self.encoder = TurboEncoder(
            throughput_mp_s=costs.encode_mp_per_s(runtime.spec.cpu)
        )
        self.stats = NodeStats()
        self.failed = False
        self._queued_fill_mp = 0.0

    def fail(self) -> None:
        """Simulate the device dropping off the network (failure injection):
        queued and future work is silently discarded, as a crashed or
        powered-off box would.  A frame mid-render at crash time never
        ships its reply either — a dead box answers nothing."""
        self.failed = True
        self._queued_fill_mp = 0.0
        self.runtime.halt()
        self.sim.spans.mark("service", "failed", node=self.name)

    def rejoin(self) -> None:
        """The device comes back (power restored, daemon restarted): it
        starts clean — empty queue, no memory of pre-crash work — and
        serves whatever arrives next."""
        if not self.failed:
            return
        self.failed = False
        self.sim.spans.mark("service", "rejoined", node=self.name)

    # -- ingress -----------------------------------------------------------------

    def _enqueue(self, item: ServiceWorkItem) -> None:
        if not self._busy:
            self._busy = True
            self.sim.soon(self._serve, item)
            return
        priority = item.priority if self._by_priority else 0.0
        heappush(self._queue, (priority, next(self._arrivals), item))

    def on_state_message(self, message: Message) -> None:
        self._enqueue(
            ServiceWorkItem(
                kind="state",
                commands_nominal=message.metadata.get("nominal_commands", 0),
                received_at=self.sim.now,
                priority=-1.0,
            )
        )

    def on_frame_message(self, message: Message) -> None:
        request: RenderRequest = message.metadata["request"]
        frame_desc: FrameImage = message.metadata["frame_desc"]
        # Remote replay lacks the app's device-tuned render-path hints, so
        # the fill-equivalent work grows by the remoting overhead factor.
        # Derived from the base fill each arrival, so a request re-dispatched
        # to a second node after a failure is not inflated twice.
        base_fill = request.metadata.setdefault(
            "base_fill_megapixels", request.fill_megapixels
        )
        request.fill_megapixels = base_fill * costs.REMOTE_RENDER_OVERHEAD
        self._queued_fill_mp += request.fill_megapixels
        self._enqueue(
            ServiceWorkItem(
                kind="frame",
                commands_nominal=message.metadata.get("nominal_commands", 0),
                request=request,
                frame_desc=frame_desc,
                received_at=self.sim.now,
                priority=float(request.metadata.get("priority", 0.0)),
            )
        )

    # -- scheduler inputs (Eq. 4) ---------------------------------------------------

    @property
    def queued_workload_mp(self) -> float:
        """w^j: fill workload accepted but not yet finished."""
        return self._queued_fill_mp

    def predicted_stage_ms(self, request: RenderRequest) -> float:
        """Full per-frame service time for a request on this node."""
        return costs.frame_ms(
            self.runtime.spec.cpu,
            request.metadata.get("nominal_commands", len(request.commands)),
            base_fill(request),
            self.runtime.gpu.capacity_megapixels_per_ms(),
            request.width * request.height,
            self.encoder.throughput_mp_s,
        )

    def capability_mp_per_ms(self, request: RenderRequest) -> float:
        """c^j: effective workload throughput for requests like this one."""
        stage = self.predicted_stage_ms(request)
        if stage <= 0:
            return float("inf")
        return base_fill(request) / stage

    # -- replay fast path -----------------------------------------------------------------

    def _resolve_replay(self, request: RenderRequest, info: dict):
        """Reconstruct a replay-hit interval and differentially verify it.

        Returns ``(commands, outcome)``.  The reconstruction's digest must
        equal the digest of the live stream the client issued; equality on
        a promote-serve is the ``run_replay_pair``-style verification that
        upgrades the entry to VERIFIED.  Any mismatch — corrupt patch,
        corrupt store entry, or the entry having been evicted while the
        hit was in flight — demotes the entry and falls back to the live
        commands the request carries (simulation bookkeeping standing in
        for the client's retransmission, which the client re-accounts as
        uplink bytes when it sees the ``diverged`` outcome).
        """
        from repro.check.digest import command_digest
        from repro.codec.delta import DeltaError
        from repro.gles.intervals import IntervalError
        from repro.replay.session import reconstruct_interval

        entry = (
            self.replay_store.get(info["digest"])
            if self.replay_store is not None
            else None
        )
        reconstructed = None
        if entry is not None:
            try:
                reconstructed = reconstruct_interval(
                    entry, info["patch"], info.get("variant", 0)
                )
            except (DeltaError, IntervalError):
                reconstructed = None
        if (
            reconstructed is not None
            and command_digest(reconstructed) == info["expect"]
        ):
            outcome = "ok"
            if info.get("promote") and self.replay_store is not None:
                if self.replay_store.promote(info["digest"]):
                    outcome = "promoted"
            return reconstructed, outcome
        if self.replay_store is not None:
            self.replay_store.demote(info["digest"])
        trace = request.metadata.get("trace")
        self.sim.spans.mark(
            "replay", "divergence",
            node=self.name, digest=info["digest"][:16],
            **({"trace_id": trace.trace_id} if trace is not None else {}),
        )
        return list(request.commands), "diverged"

    # -- the daemon -----------------------------------------------------------

    def _next(self) -> None:
        """Take the next work item, or go idle."""
        if self._queue:
            self.sim.soon(self._serve, heappop(self._queue)[2])
        else:
            self._busy = False

    def _serve(self, item: ServiceWorkItem) -> None:
        if self.failed:
            # A dead box answers nothing; drop the work on the floor.
            self._queued_fill_mp = 0.0
            self._next()
            return
        cpu = self.runtime.spec.cpu
        self.runtime.cpu.set_load("daemon", 0.6)
        replay_info = None
        if item.kind == "frame" and item.request is not None:
            replay_info = item.request.metadata.get("replay")
        if replay_info is not None:
            # Replay hit: the recorded interval is already resident —
            # no stream decompress, no ES translation (paid once at
            # record time); just look up, patch and enqueue.
            perf = cpu.perf_index
            replay_ms = costs.REPLAY_HIT_MS / perf
            replay_ms += (
                item.commands_nominal
                * costs.REPLAY_US_PER_COMMAND
                / 1000.0
                / perf
            )
        else:
            replay_ms = costs.decode_ms(cpu, item.commands_nominal)
        self.sim.call_later(
            replay_ms, self._decoded, item, self.sim.now, replay_ms,
            replay_info,
        )

    def _decoded(
        self,
        item: ServiceWorkItem,
        dequeued_at: float,
        replay_ms: float,
        replay_info: Optional[dict],
    ) -> None:
        self.stats.replay_ms_total += replay_ms
        if item.kind == "state":
            self.stats.state_batches += 1
            self.runtime.cpu.set_load("daemon", 0.0)
            self._next()
            return
        request = item.request
        commands = request.commands
        if replay_info is not None:
            commands, outcome = self._resolve_replay(request, replay_info)
            request.metadata["replay_outcome"] = outcome
            # What the full decompress + replay path would have charged.
            full_ms = costs.decode_ms(
                self.runtime.spec.cpu, replay_info.get("full_nominal", 0)
            )
            if outcome == "diverged":
                # Fallback re-runs the full pipeline for this frame:
                # charge what the fast path thought it was skipping.
                self.sim.call_later(
                    full_ms, self._fell_back, item, dequeued_at, commands,
                    full_ms,
                )
                return
            self.stats.replay_hits += 1
            self.stats.replay_ms_saved += max(0.0, full_ms - replay_ms)
        self._render(item, dequeued_at, commands)

    def _fell_back(
        self,
        item: ServiceWorkItem,
        dequeued_at: float,
        commands: list,
        full_ms: float,
    ) -> None:
        self.stats.replay_ms_total += full_ms
        self.stats.replay_fallbacks += 1
        self._render(item, dequeued_at, commands)

    def _render(
        self, item: ServiceWorkItem, dequeued_at: float, commands: list
    ) -> None:
        # Replay the (reconstructed or subsampled live) commands through
        # the context so state consistency is observable, then render.
        request = item.request
        self.runtime.context.execute_sequence(commands)
        if self.sim.digests is not None:
            self.sim.digests.record_execution(
                request.frame_id, commands, site=self.name
            )
        # At completion the daemon resumes where a callback parked on the
        # render would run: ahead of the GPU's next request.
        self.runtime.gpu.submit(
            request,
            partial(
                self.sim.soon, self._encode, item, dequeued_at, self.sim.now
            ),
        )

    def _encode(
        self,
        item: ServiceWorkItem,
        dequeued_at: float,
        gpu_start: float,
        _done: CompletedRender,
    ) -> None:
        request = item.request
        self.stats.gpu_ms_total += self.sim.now - gpu_start
        parent_name, parent_depth, extra = _span_parent(request)
        # "execute" covers decompress + replay + GPU render on this node.
        self.sim.spans.add(
            "server", "execute", dequeued_at, self.sim.now,
            track=self.name, frame_id=request.frame_id,
            parent=parent_name, depth=parent_depth,
            queue_wait_ms=dequeued_at - item.received_at,
            **extra,
        )
        # Encode the rendered frame (Turbo incremental codec).
        encoded = self.encoder.encode_descriptor(
            item.frame_desc,
            keyframe=self.stats.frames_rendered == 0,
        )
        self.sim.call_later(
            encoded.encode_time_ms, self._encoded, request, encoded,
            self.sim.now,
        )

    def _encoded(
        self,
        request: RenderRequest,
        encoded: EncodedFrame,
        encode_start: float,
    ) -> None:
        self.stats.encode_ms_total += encoded.encode_time_ms
        parent_name, parent_depth, extra = _span_parent(request)
        self.sim.spans.add(
            "server", "video_encode", encode_start, self.sim.now,
            track=self.name, frame_id=request.frame_id,
            parent=parent_name, depth=parent_depth,
            bytes=encoded.size_bytes,
            **extra,
        )
        self._queued_fill_mp = max(
            0.0, self._queued_fill_mp - request.fill_megapixels
        )
        self.stats.frames_rendered += 1
        self.stats.bytes_returned += encoded.size_bytes
        self.runtime.cpu.set_load("daemon", 0.0)
        # Crashed while this frame was in flight through the
        # replay/render/encode path: the reply is never sent.
        if not self.failed:
            self._ship(request, encoded)
        self._next()

    def _ship(self, request: RenderRequest, encoded: EncodedFrame) -> None:
        """Send the frame home."""
        reply = Message.of_size(
            encoded.size_bytes,
            kind="frame",
            request_id=request.request_id,
            node=self.name,
        )
        reply.message_id = self.sim.next_message_id()
        reply.metadata["request"] = request
        if self.account_downlink is not None:
            self.account_downlink(reply.size_bytes)
        # Multi-user mode routes each reply to its requester's own
        # downlink transport; single-user sessions use the default.
        downlink = request.metadata.get("reply_transport", self.downlink)
        downlink.send(reply)


def _span_parent(request: RenderRequest):
    """``(parent name, depth, span extras)`` for a node-side span."""
    root = request.metadata.get("frame_span")
    trace = request.metadata.get("trace")
    return (
        root.qualified_name if root is not None else None,
        root.depth + 1 if root is not None else 0,
        {"trace_id": trace.trace_id} if trace is not None else {},
    )


def base_fill(request: RenderRequest) -> float:
    """The request's fill before any node inflated it on arrival."""
    return request.metadata.get(
        "base_fill_megapixels", request.fill_megapixels
    )
