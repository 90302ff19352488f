"""Fleet sessions: one user's ongoing game, placed on a pool device.

A :class:`FleetSession` issues frames at the app's serve rate through a
bounded pipeline (at most ``pipeline_depth`` frames outstanding — the
same back-pressure the rewritten non-blocking SwapBuffer gives a single
client), records per-frame response times, and survives migration: the
controller can re-point it at a new node mid-flight and the next issued
frame lands there.

A session runs as kernel callbacks.  Each issue schedules the next period
tick.  A tick that finds the pipeline full sets a gate, and so does the
end of the session's time while frames are still out.  The answer that
opens the gate issues the frame, or ends the session, in the same call —
unless another event is due at that instant: then the session queues
behind it, as a woken waiter would.

An issue that fills the pipeline does not queue its tick: until an answer
comes, that tick could only set the gate.  It keeps the tick's place with
:meth:`~repro.sim.kernel.Simulator.reserve` instead, and the first answer
settles it.  If the place is still ahead, the tick is queued there, as if
it had been queued all along.  If the run has passed it, the answer sets
the gate the tick would have set and opens it at once.  In an
overloaded fleet nearly every issue fills the pipeline, so only about one
tick in seven is ever queued.

QoS tiers derive from :data:`repro.core.multiuser.GENRE_PRIORITY`:
action games are tier "action" (priority 0, overtakes every queue),
role-playing "standard" (1), puzzle and non-game apps "tolerant" (2).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.base import ApplicationSpec
from repro.core.multiuser import app_priority
from repro.fleet.config import FleetConfig
from repro.fleet.node import FleetNode, FrameTask
from repro.sim.kernel import Event, Simulator

#: fraction of the nominal per-frame command work a warm (replay-served)
#: session still costs its node; calibrated against the single-session
#: warm/cold server-time ratio of the R4 bench (~20x cheaper)
REPLAY_WARM_FACTOR = 0.05

#: GENRE_PRIORITY value -> human-readable QoS tier name
TIER_NAMES = {0.0: "action", 1.0: "standard", 2.0: "tolerant"}


def tier_name(priority: float) -> str:
    return TIER_NAMES.get(priority, "standard")


@dataclass(frozen=True)
class SessionRequest:
    """What a would-be player asks the fleet for."""

    session_id: str
    app: ApplicationSpec
    arrival_ms: float

    @property
    def priority(self) -> float:
        return app_priority(self.app)

    @property
    def tier(self) -> str:
        return tier_name(self.priority)

    def demand_mp_per_ms(self, serve_rate_hz: float) -> float:
        """Steady-state fill demand this session adds to its node."""
        return self.app.fill_mp_per_frame * serve_rate_hz / 1000.0


class FleetSession:
    """An admitted session streaming frames to its assigned node."""

    def __init__(
        self,
        sim: Simulator,
        request: SessionRequest,
        config: FleetConfig,
        duration_ms: float,
    ):
        self.sim = sim
        self.request = request
        self.config = config
        self.duration_ms = duration_ms
        self.session_id = request.session_id
        self.app = request.app
        self.priority = request.priority
        self.tier = request.tier
        self.node: Optional[FleetNode] = None
        self.started_at_ms: Optional[float] = None
        #: set by a replay-enabled controller when an earlier session of
        #: this title already recorded: frames cost the warm factor only
        self.replay_warm = False
        self.migrations = 0
        self.last_migration_ms = -float("inf")
        self.response_times_ms: List[float] = []
        self.frames_issued = 0
        self.frames_lost = 0          # invariant: stays 0 under migration
        self.outstanding: Dict[int, FrameTask] = {}
        self.finished: Event = sim.event(name=f"fleet.{self.session_id}.done")
        sim.on_teardown(self._close)
        #: ``(limit, then)`` while the session waits for answers: ``then``
        #: runs once fewer than ``limit`` frames are outstanding
        self._gate: Optional[Tuple[int, Callable[[], None]]] = None
        self._end_ms = 0.0
        #: the ``(time, seq)`` place of the next tick, kept by an issue
        #: that filled the pipeline; the first answer after it settles it
        self._tick_place: Optional[Tuple[float, int]] = None
        self._seq = 0
        self._depth = config.pipeline_depth
        self._period_ms = 1000.0 / config.serve_rate_hz

    # -- placement -----------------------------------------------------------

    @property
    def demand_mp_per_ms(self) -> float:
        return self.request.demand_mp_per_ms(self.config.serve_rate_hz)

    def set_node(self, node: FleetNode) -> None:
        self.node = node

    def start(self, node: FleetNode) -> None:
        self.node = node
        self.started_at_ms = self.sim.now
        self._end_ms = self.sim.now + self.duration_ms
        self.sim.call_later(0.0, self._tick)

    # -- frame completion (called by whichever node served the frame) --------

    def on_frame_complete(self, task: FrameTask) -> None:
        self.outstanding.pop(task.seq, None)
        self.response_times_ms.append(task.response_ms)
        if self.sim.telemetry is not None:
            # Per-frame response feed for the fleet frame-p99 objective
            # (the capacity planner's headline SLO).
            self.sim.telemetry.observe(
                "fleet.frame_response_ms", task.response_ms, tier=self.tier,
            )
        place = self._tick_place
        if place is not None:
            self._tick_place = None
            if self.sim.call_reserved(place, self._tick):
                return
            # The tick has run in all but name: it found the pipeline full
            # and set the gate this answer opens.
            gate = self._tick_gate(place[0])
        else:
            gate = self._gate
            if gate is None:
                return
            self._gate = None
        # Where a woken waiter would run, so equal-timestamp events keep
        # their order.
        self.sim.soon(self._wait_for, *gate)

    # -- migration -----------------------------------------------------------

    def take_over(self, task: FrameTask, node: FleetNode) -> None:
        """Re-dispatch one stranded frame on the session's (new) node."""
        task.redispatches += 1
        node.submit(task)

    # -- issuing -------------------------------------------------------------

    def _tick(self) -> None:
        """One serve period has passed: issue, or drain once time is up."""
        self._wait_for(*self._tick_gate(self.sim.now))

    def _tick_gate(self, when: float) -> Tuple[int, Callable[[], None]]:
        """What a tick at ``when`` waits for, as ``(limit, then)``."""
        if when < self._end_ms:
            # Once the gate opens, the frame goes out without re-checking
            # the session's end.
            return self._depth, self._issue
        # Wait until every outstanding frame has been answered (possibly
        # by a different node than the one it was issued to).
        return 1, self._finish

    def _close(self) -> None:
        """Teardown breaker: drop what waits on this session, the
        continuation parked at its gate and the callbacks parked on
        ``finished``.  Both point back at their owners."""
        self._gate = None
        self.finished.cancel_waiters()

    def _wait_for(self, limit: int, then: Callable[[], None]) -> None:
        """Run ``then`` now if fewer than ``limit`` frames are outstanding;
        otherwise gate it on the next answer, which checks again."""
        if len(self.outstanding) < limit:
            then()
        else:
            self._gate = (limit, then)

    def _issue(self) -> None:
        commands = self.app.nominal_commands_per_frame
        if self.replay_warm:
            # Delta-served interval: the node patches the recorded
            # skeleton instead of decoding + translating the stream.
            commands = max(1, int(commands * REPLAY_WARM_FACTOR))
        app = self.app
        seq = self._seq
        task = FrameTask(
            self.session_id, seq, app.fill_mp_per_frame, commands,
            app.render_width, app.render_height, self.priority, self.sim.now,
        )
        self._seq = seq + 1
        self.frames_issued += 1
        outstanding = self.outstanding
        outstanding[seq] = task
        assert self.node is not None
        # Take the next tick's place before an idle node schedules this
        # frame's completion: when both fall due at one instant, the tick
        # runs first, as it did while service began a zero-delay step
        # later.  A full pipeline keeps the place without queueing it.
        if len(outstanding) < self._depth:
            self.sim.call_later(self._period_ms, self._tick)
        else:
            self._tick_place = self.sim.reserve(self._period_ms)
        self.node.submit(task)

    def _finish(self) -> None:
        self.frames_lost = self.frames_issued - len(self.response_times_ms)
        # No value: the event would point back at the session that owns it.
        self.finished.trigger()

    # -- metrics -------------------------------------------------------------

    @property
    def mean_response_ms(self) -> float:
        if not self.response_times_ms:
            return 0.0
        return sum(self.response_times_ms) / len(self.response_times_ms)

    def frame_digest(self) -> str:
        """Content digest of the session's frame stream.

        Covers what was rendered — identity, tier, frame geometry, command
        volume, the contiguous sequence of issued frames and how many were
        answered — but deliberately *not* when: response times depend on
        pool contention, which the shard-count determinism contract does
        not (and cannot) pin.  Under the sharded kernel this is the
        per-session unit the coordinator merges and the CI parallel-smoke
        job diffs across ``--workers`` counts.
        """
        h = hashlib.sha256()
        h.update(
            f"{self.session_id}|{self.app.short_name}|{self.tier}".encode()
        )
        h.update(
            f"|{self.app.render_width}x{self.app.render_height}"
            f"|{self.app.nominal_commands_per_frame}"
            f"|{self.app.fill_mp_per_frame:.6f}".encode()
        )
        h.update(
            f"|issued={self.frames_issued}"
            f"|answered={len(self.response_times_ms)}"
            f"|lost={self.frames_lost}"
            f"|redispatched={sum(t.redispatches for t in self.outstanding.values())}".encode()
        )
        return h.hexdigest()
