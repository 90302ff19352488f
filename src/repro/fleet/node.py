"""The fleet's serving abstraction: one device executing session frames.

A :class:`FleetNode` is the control-plane view of a service daemon: a
priority work queue served non-preemptively, charging the per-frame
costs of :mod:`repro.core.costs` that a
:class:`~repro.core.server.ServiceNode` charges (decompress + replay + GPU
fill + Turbo encode), without the per-command GL replay — at fleet scale
the currency is *capacity*, not individual GL state transitions.
``tests/fleet/test_calibration.py`` checks the charge against a full
offload session.  Tiers map straight onto the queue priority: an action-tier
frame always overtakes queued tolerant-tier frames.

The node serves as kernel callbacks.  A task submitted to an idle node
starts at once; a busy node heaps it.  One kernel callback per task marks
the end of its service, and that callback picks the next task before it
reports the finished one, so a frame that the answered session reissues
at once queues behind work that was already waiting.

Failure semantics mirror the single-user daemon: a crashed box answers
nothing.  Work submitted to (or queued on) a dead node accumulates as
*stranded* tasks; the controller collects them with :meth:`strand_all`
when the registry's heartbeat monitor declares the device lost, and
re-dispatches them on the sessions' new homes — the client's re-dispatch
path lifted from per-request to per-session granularity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import costs
from repro.devices.profiles import DeviceSpec
from repro.sim.kernel import Simulator

#: queue priority of a migration state-replay batch: ahead of every frame
STATE_PRIORITY = -1.0


@dataclass(slots=True)
class FrameTask:
    """One unit of session work on a node ("frame" or migration "state").

    Slotted: a fleet op builds thousands, and a session builds each
    positionally, in field order.
    """

    session_id: str
    seq: int
    fill_megapixels: float
    commands_nominal: int
    width: int
    height: int
    priority: float
    issued_at_ms: float
    kind: str = "frame"                 # "frame" | "state"
    completed: bool = False
    completed_at_ms: Optional[float] = None
    #: when the task last entered a node's queue (re-set on re-dispatch),
    #: so the node can report true per-node queue wait
    enqueued_at_ms: Optional[float] = None
    #: the node currently responsible for answering this task; a stale
    #: server (crashed mid-render, then rejoined) must not complete a task
    #: that has been re-dispatched elsewhere.
    assigned_node: Optional[str] = None
    redispatches: int = 0

    @property
    def response_ms(self) -> float:
        if self.completed_at_ms is None:
            return float("inf")
        return self.completed_at_ms - self.issued_at_ms


@dataclass
class FleetNodeStats:
    frames_served: int = 0
    state_replays: int = 0
    busy_ms: float = 0.0
    stranded_tasks: int = 0


class FleetNode:
    """One service device as seen by the fleet controller."""

    def __init__(
        self,
        sim: Simulator,
        spec: DeviceSpec,
        on_complete: Optional[Callable[[FrameTask], None]] = None,
    ):
        self.sim = sim
        self.spec = spec
        self.name = spec.name
        self.on_complete = on_complete
        sim.on_teardown(setattr, self, "on_complete", None)
        self.failed = False
        self.stats = FleetNodeStats()
        #: tasks that arrived while the box was dead, awaiting rescue
        self.stranded: List[FrameTask] = []
        #: the task in service; None while the node is idle
        self._current: Optional[FrameTask] = None
        #: waiting work as ``(priority, arrival order, task)``: most urgent
        #: first, first come first served within a priority
        self._queue: List[Tuple[float, int, FrameTask]] = []
        self._arrivals = itertools.count()
        self._queued_fill_mp = 0.0
        self._encode_rate = costs.encode_mp_per_s(spec.cpu)
        #: service charge per task shape ``(kind, commands, fill, width,
        #: height)``; the charge is a pure function of shape and device
        self._service_ms: Dict[Tuple[str, int, float, int, int], float] = {}

    # -- capacity model ------------------------------------------------------

    @property
    def capacity_mp_per_ms(self) -> float:
        """Effective serving throughput in fill megapixels per ms.

        GPU fillrate discounted by the remote-rendering overhead — the
        same inflation a ServiceNode applies to each request's workload.
        """
        return self.spec.gpu.fillrate_gpixels / costs.REMOTE_RENDER_OVERHEAD

    @property
    def queued_workload_mp(self) -> float:
        """w^j for Eq. 4 and the heartbeat payload: accepted, unfinished."""
        return self._queued_fill_mp

    @property
    def load_fraction(self) -> float:
        """Queued workload as a fraction of one second of capacity."""
        horizon_mp = self.capacity_mp_per_ms * 1000.0
        if horizon_mp <= 0:
            return 1.0
        return max(0.0, min(1.0, self._queued_fill_mp / horizon_mp))

    def service_time_ms(self, task: FrameTask) -> float:
        key = (
            task.kind, task.commands_nominal, task.fill_megapixels,
            task.width, task.height,
        )
        ms = self._service_ms.get(key)
        if ms is None:
            if task.kind == "state":
                # replay only: nothing rendered, nothing encoded
                ms = costs.decode_ms(self.spec.cpu, task.commands_nominal)
            else:
                ms = costs.frame_ms(
                    self.spec.cpu, task.commands_nominal,
                    task.fill_megapixels, self.spec.gpu.fillrate_gpixels,
                    task.width * task.height, self._encode_rate,
                )
            self._service_ms[key] = ms
        return ms

    # -- ingress -------------------------------------------------------------

    def submit(self, task: FrameTask) -> None:
        task.assigned_node = self.name
        task.enqueued_at_ms = self.sim.now
        if task.kind == "frame":
            self._queued_fill_mp += task.fill_megapixels
        if self.failed:
            # Sent to a dead box: it answers nothing.  The task waits for
            # the heartbeat monitor to notice and the controller to rescue.
            self.stranded.append(task)
            return
        self._put(task)

    # -- failure -------------------------------------------------------------

    def fail(self) -> None:
        """The device drops off the network (crash injection)."""
        if self.failed:
            return
        self.failed = True
        self.sim.spans.mark("fleet.state", "node_failed", track=self.name)

    def rejoin(self) -> None:
        """Power restored: the daemon starts clean and serves new work."""
        if not self.failed:
            return
        self.failed = False
        stranded, self.stranded = self.stranded, []
        self.sim.spans.mark("fleet.state", "node_rejoined", track=self.name)
        # A glitch shorter than the heartbeat timeout is never detected,
        # so nobody rescues the stranded work — serve it ourselves.
        for task in stranded:
            if not task.completed and task.assigned_node == self.name:
                self._put(task)

    def strand_all(self) -> List[FrameTask]:
        """Collect every task this node will never answer, for re-dispatch.

        Queued work, work that arrived after the crash, and the frame on
        the GPU at crash time (a dead box never ships its reply).  The
        queued-workload gauge resets — this node no longer owes anything.
        """
        out = [t for _p, _a, t in sorted(self._queue) if not t.completed]
        self._queue.clear()
        out.extend(t for t in self.stranded if not t.completed)
        self.stranded.clear()
        if self._current is not None and not self._current.completed:
            out.append(self._current)
        self.stats.stranded_tasks += len(out)
        self._queued_fill_mp = 0.0
        return out

    def restrand(self, tasks: List[FrameTask]) -> None:
        """Take back tasks :meth:`strand_all` collected that no other node
        could take; :meth:`rejoin` serves them.  The frame on the GPU is
        not taken back: it strands itself when its service period ends."""
        self.stranded.extend(t for t in tasks if t is not self._current)

    # -- heartbeat -----------------------------------------------------------

    def heartbeat_payload(self) -> Optional[float]:
        """The queued workload carried by a heartbeat; None when silent."""
        if self.failed:
            return None
        return self.queued_workload_mp

    # -- serving -------------------------------------------------------------

    def _put(self, task: FrameTask) -> None:
        """Start ``task`` on an idle node; queue it behind a busy one."""
        if self._current is None:
            self._start(task)
        else:
            heappush(self._queue, (task.priority, next(self._arrivals), task))

    def _start(self, task: FrameTask) -> None:
        self._current = task
        now = self.sim.now
        if task.enqueued_at_ms is not None:
            self.sim.spans.record(
                "fleet.queue", "queue_wait", task.enqueued_at_ms, now,
                self.name, task.seq, None, 0, False,
                {"session": task.session_id},
            )
        busy = self.service_time_ms(task)
        self.sim.call_later(busy, self._done, task, now, busy)

    def _done(self, task: FrameTask, started_at: float, busy: float) -> None:
        """The service period of ``task`` has elapsed."""
        self._current = None
        served_here = (
            not self.failed
            and not task.completed
            and task.assigned_node == self.name
        )
        if served_here:
            self.stats.busy_ms += busy
            task.completed = True
            task.completed_at_ms = self.sim.now
            self.sim.spans.record(
                "fleet.execute",
                "execute" if task.kind == "frame" else "state_replay",
                started_at, self.sim.now, self.name, task.seq, None, 0,
                False, {"session": task.session_id},
            )
            if task.kind == "state":
                self.stats.state_replays += 1
            else:
                self.stats.frames_served += 1
                self._queued_fill_mp = max(
                    0.0, self._queued_fill_mp - task.fill_megapixels
                )
        elif (
            self.failed
            and not task.completed
            and task.assigned_node == self.name
        ):
            # Crashed mid-render and still responsible: the frame must
            # survive until the monitor notices and the controller rescues
            # it (zero-loss invariant).
            self.stranded.append(task)
        # Otherwise the task migrated and was (or will be) answered by its
        # new home.
        #
        # Take the next task before answering: the session the answer
        # wakes may reissue at once, and it queues behind waiting work.
        queue = self._queue
        if self.failed:
            # A dead box hands its queue over to the rescue, in order.
            while queue:
                self.stranded.append(heappop(queue)[2])
        elif queue:
            self._start(heappop(queue)[2])
        if served_here and self.on_complete is not None:
            self.on_complete(task)
