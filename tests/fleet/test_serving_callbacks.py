"""Fleet nodes and sessions serve as callbacks: the coroutine loops as oracle.

``FleetNode`` and ``FleetSession`` used to run one coroutine each: a
serving loop over a priority store and a frame-issue loop behind a pipeline gate event.  Both now act inside the
kernel callback that brings them work or an answer.  This module keeps
those loops, verbatim, as test-local reference subclasses, run by the
driver ``tests.coroutines.spawn``, and checks that
the callbacks replay them: same tasks, completion times, owners and
re-dispatch counts, node stats, stranded sets and spans — with float
times, where no two events share an instant, and on a whole-ms grid,
where they tie all the time.  The next tests pin the orders the
callbacks must keep, and the tie orders that changed.  The last ones
check the session's reserved ticks against a session that queues every
tick.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import replace
from typing import Generator, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.games import (
    CANDY_CRUSH,
    CUT_THE_ROPE,
    FINAL_FANTASY,
    GTA_SAN_ANDREAS,
    MODERN_COMBAT,
    STAR_WARS_KOTOR,
)
from repro.core import costs
from repro.devices.profiles import NVIDIA_SHIELD
from repro.experiments.fleet import make_fleet_pool
from repro.fleet import (
    STATE_PRIORITY,
    FleetConfig,
    FleetNode,
    FleetSession,
    FrameTask,
    SessionRequest,
)
from repro.fleet.session import REPLAY_WARM_FACTOR
from repro.sim.kernel import Event, Simulator
from tests.coroutines import spawn


# -- the reference: the coroutine loops the callbacks replaced -------------


class PriorityStore:
    """The priority store the old serving loop read: ``get`` returns an
    event fired with the most urgent item (lowest priority, FIFO within
    one), handed straight to the oldest waiting getter on ``put``."""

    def __init__(self, sim, name=""):
        self.sim = sim
        self.name = name or "pstore"
        self._heap = []
        self._counter = 0
        self._getters = deque()

    def put(self, item, priority=0.0):
        if self._getters:
            self._getters.popleft().trigger(item)
            return
        heapq.heappush(self._heap, (priority, self._counter, item))
        self._counter += 1

    def get(self):
        evt = Event(self.sim, name=f"{self.name}.get")
        if self._heap:
            evt.trigger(heapq.heappop(self._heap)[2])
        else:
            self._getters.append(evt)
        return evt

    def drain(self):
        """Remove and return every queued item, most urgent first."""
        out = [item for _p, _s, item in sorted(self._heap)]
        self._heap.clear()
        return out


class ReferenceNode(FleetNode):
    """A fleet node served by its old coroutine over a ``PriorityStore``."""

    def __init__(self, sim, spec, on_complete=None):
        super().__init__(sim, spec, on_complete)
        self.queue = PriorityStore(sim, name=f"fleet.{self.name}.work")
        spawn(sim, self._run())

    def _put(self, task: FrameTask) -> None:
        self.queue.put(task, priority=task.priority)

    def rejoin(self) -> None:
        if not self.failed:
            return
        self.failed = False
        for task in self.stranded:
            if not task.completed and task.assigned_node == self.name:
                self.queue.put(task, priority=task.priority)
        self.stranded.clear()
        self.sim.spans.mark("fleet.state", "node_rejoined", track=self.name)

    def strand_all(self) -> List[FrameTask]:
        out = [t for t in self.queue.drain() if not t.completed]
        out.extend(t for t in self.stranded if not t.completed)
        self.stranded.clear()
        if self._current is not None and not self._current.completed:
            out.append(self._current)
        self.stats.stranded_tasks += len(out)
        self._queued_fill_mp = 0.0
        return out

    def _run(self) -> Generator:
        while True:
            task: FrameTask = yield self.queue.get()
            if self.failed:
                self.stranded.append(task)
                continue
            self._current = task
            dequeued_at = self.sim.now
            if task.enqueued_at_ms is not None:
                self.sim.spans.add(
                    "fleet.queue", "queue_wait",
                    task.enqueued_at_ms, dequeued_at,
                    track=self.name, frame_id=task.seq,
                    session=task.session_id,
                )
            busy = self.service_time_ms(task)
            yield busy
            self._current = None
            served_here = (
                not self.failed
                and not task.completed
                and task.assigned_node == self.name
            )
            if not served_here:
                if (
                    self.failed
                    and not task.completed
                    and task.assigned_node == self.name
                ):
                    self.stranded.append(task)
                continue
            self.stats.busy_ms += busy
            task.completed = True
            task.completed_at_ms = self.sim.now
            self.sim.spans.add(
                "fleet.execute",
                "execute" if task.kind == "frame" else "state_replay",
                dequeued_at, self.sim.now,
                track=self.name, frame_id=task.seq,
                session=task.session_id,
            )
            if task.kind == "state":
                self.stats.state_replays += 1
            else:
                self.stats.frames_served += 1
                self._queued_fill_mp = max(
                    0.0, self._queued_fill_mp - task.fill_megapixels
                )
            if self.on_complete is not None:
                self.on_complete(task)


class ReferenceSession(FleetSession):
    """A fleet session driven by its old issue loop and gate event."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._gate = None

    def start(self, node: FleetNode) -> None:
        self.node = node
        self.started_at_ms = self.sim.now
        spawn(self.sim, self._run())

    def on_frame_complete(self, task: FrameTask) -> None:
        self.outstanding.pop(task.seq, None)
        self.response_times_ms.append(task.response_ms)
        if self.sim.telemetry is not None:
            self.sim.telemetry.observe(
                "fleet.frame_response_ms", task.response_ms, tier=self.tier,
            )
        if self._gate is not None and not self._gate.triggered:
            self._gate.trigger(None)

    def _run(self) -> Generator:
        period_ms = 1000.0 / self.config.serve_rate_hz
        end = self.sim.now + self.duration_ms
        while self.sim.now < end:
            while len(self.outstanding) >= self.config.pipeline_depth:
                self._gate = self.sim.event(
                    name=f"fleet.{self.session_id}.gate"
                )
                yield self._gate
                self._gate = None
            commands = self.app.nominal_commands_per_frame
            if self.replay_warm:
                commands = max(1, int(commands * REPLAY_WARM_FACTOR))
            task = FrameTask(
                session_id=self.session_id,
                seq=self._seq,
                fill_megapixels=self.app.fill_mp_per_frame,
                commands_nominal=commands,
                width=self.app.render_width,
                height=self.app.render_height,
                priority=self.priority,
                issued_at_ms=self.sim.now,
            )
            self._seq += 1
            self.frames_issued += 1
            self.outstanding[task.seq] = task
            assert self.node is not None
            self.node.submit(task)
            yield period_ms
        while self.outstanding:
            self._gate = self.sim.event(name=f"fleet.{self.session_id}.drain")
            yield self._gate
            self._gate = None
        self.frames_lost = self.frames_issued - len(self.response_times_ms)
        self.finished.trigger(self)


# -- a small fleet, without the controller ---------------------------------

APPS = (CANDY_CRUSH, CUT_THE_ROPE, FINAL_FANTASY, GTA_SAN_ANDREAS,
        MODERN_COMBAT, STAR_WARS_KOTOR)
#: two of each Table II service device, so same-spec nodes share a pool
POOL = make_fleet_pool(8)


def weightless(app):
    """``app`` with no pixels and no commands: a frame costs only the
    decompress step, so its service time is whatever the device makes it
    (:func:`integral_shield`)."""
    return replace(app, fill_mp_per_frame=0.0, nominal_commands_per_frame=0,
                   render_width=0, render_height=0)


def run_fleet(scenario, node_cls, session_cls):
    """Run ``scenario`` on the given node and session classes.

    Sessions arrive on their home nodes; a crash strands a node's work,
    and if the node is still down when the monitor would notice, its
    sessions move to the first live node behind a state-replay task and
    their stranded tasks are re-dispatched there — the controller's crash
    path in miniature.  Returns everything the two sides must agree on.

    With ``tie_busy_ms`` set, every node is a Shield, every frame takes
    exactly that many ms, and arrivals, session lengths and the issue
    period are whole ms, so events share instants all the time.  A
    crash, rejoin and rescue then fall half a ms off that grid.
    """
    rng = random.Random(scenario["seed"])
    busy_ms = scenario["tie_busy_ms"]
    if busy_ms is None:
        def instant(lo, hi):
            return rng.uniform(lo, hi)

        def off_grid(lo, hi):
            return rng.uniform(lo, hi)

        config = FleetConfig(serve_rate_hz=scenario["rate_hz"],
                             pipeline_depth=scenario["depth"])
        specs = [POOL[i] for i in scenario["nodes"]]
    else:
        def instant(lo, hi):
            return float(rng.randint(lo, hi))

        def off_grid(lo, hi):
            return rng.randint(lo, hi) + 0.5

        config = FleetConfig(serve_rate_hz=scenario["rate_hz"],
                             pipeline_depth=scenario["depth"])
        specs = [integral_shield(busy_ms, name=f"Shield {i}")
                 for i in scenario["nodes"]]
    sim = Simulator(seed=0)
    sessions = {}

    def answer(task):
        if task.kind == "frame":
            sessions[task.session_id].on_frame_complete(task)

    nodes = [node_cls(sim, spec, on_complete=answer)
             for spec in specs]
    submitted = []
    for node in nodes:
        def record(task, _submit=node.submit):
            if all(task is not t for t in submitted):
                submitted.append(task)
            _submit(task)

        node.submit = record
    finish_times = []
    for i, (app, home, priority) in enumerate(scenario["sessions"]):
        if busy_ms is not None:
            app = weightless(app)
        session = session_cls(
            sim, SessionRequest(f"s{i:02d}", app, arrival_ms=0.0),
            config, duration_ms=instant(100, 900),
        )
        session.priority = priority
        session.finished.on_trigger(
            lambda sid=session.session_id: finish_times.append((sid, sim.now))
        )
        sessions[session.session_id] = session
        sim.call_at(instant(0, 200),
                    lambda s=session, n=nodes[home]: s.start(n))
    rescued = []
    crash = scenario["crash"]
    if crash is not None:
        victim = nodes[crash[0] % len(nodes)]
        crash_at = off_grid(50, 600)
        sim.call_at(crash_at, victim.fail)
        if crash[1]:
            sim.call_at(crash_at + off_grid(10, 500) - 0.5, victim.rejoin)

        def rescue():
            live = [n for n in nodes if not n.failed]
            if not victim.failed or not live:
                return
            target = live[0]
            stranded = victim.strand_all()
            rescued.append([(t.session_id, t.seq) for t in stranded])
            for session in sessions.values():
                if session.node is victim:
                    target.submit(FrameTask(
                        session_id=session.session_id, seq=-1,
                        fill_megapixels=0.0, commands_nominal=3_000,
                        width=session.app.render_width,
                        height=session.app.render_height,
                        priority=STATE_PRIORITY, issued_at_ms=sim.now,
                        kind="state",
                    ))
                    session.set_node(target)
            for task in stranded:
                sessions[task.session_id].take_over(task, target)

        sim.call_at(crash_at + off_grid(100, 300) - 0.5, rescue)
    sim.run(until=60_000.0)
    return {
        "tasks": [
            (t.session_id, t.seq, t.kind, t.completed, t.completed_at_ms,
             t.assigned_node, t.redispatches)
            for t in submitted
        ],
        "stats": [node.stats for node in nodes],
        "stranded": [[(t.session_id, t.seq) for t in node.stranded]
                     for node in nodes],
        "rescued": rescued,
        "spans": [tuple(span) for span in sim.spans.spans],
        "sessions": [
            (s.frames_issued, s.frames_lost, s.response_times_ms)
            for s in sessions.values()
        ],
        "finished": finish_times,
    }


def scenarios(ties):
    """Fleets of 1–4 nodes and up to 12 sessions.  Without ``ties`` every
    time is a float drawn from the seed, so no two events share an
    instant.  With them, times sit on a whole-ms grid, and the scenario
    avoids the two conditions under which a tie's order changed
    (``TestChangedTieRules``): no node fails, and no service time equals
    the issue period."""

    @st.composite
    def draw_scenario(draw):
        n_nodes = draw(st.integers(1, 4))
        return {
            "seed": draw(st.integers(0, 2**32 - 1)),
            # never equal to a period
            "tie_busy_ms": draw(st.sampled_from([7, 16])) if ties else None,
            "nodes": draw(st.lists(st.integers(0, len(POOL) - 1),
                                   min_size=n_nodes, max_size=n_nodes,
                                   unique=True)),
            "sessions": draw(st.lists(
                st.tuples(st.sampled_from(APPS), st.integers(0, n_nodes - 1),
                          st.sampled_from([0.0, 1.0, 2.0])),
                min_size=1, max_size=12,
            )),
            # whole-ms periods (20, 10, 5 ms) on the grid
            "rate_hz": draw(st.sampled_from(
                [50.0, 100.0, 200.0] if ties else [30.0, 60.0, 120.0]
            )),
            "depth": draw(st.integers(1, 3)),
            # (node index, rejoins?) or no crash
            "crash": None if ties else draw(
                st.none() | st.tuples(st.integers(0, 3), st.booleans())
            ),
        }

    return draw_scenario()


class TestCallbacksReplayTheLoops:
    @settings(max_examples=120, deadline=None)
    @given(scenario=scenarios(ties=False))
    def test_same_tasks_stats_strands_and_spans(self, scenario):
        expected = run_fleet(scenario, ReferenceNode, ReferenceSession)
        assert run_fleet(scenario, FleetNode, FleetSession) == expected

    @settings(max_examples=120, deadline=None)
    @given(scenario=scenarios(ties=True))
    def test_same_under_equal_timestamp_ties(self, scenario):
        """Everything agrees under ties too, except the order of spans
        across tracks: a service that starts inside ``submit`` records its
        wait before spans of other same-instant events, where the loop's
        pickup came after them.  Within a track the order holds."""
        expected = run_fleet(scenario, ReferenceNode, ReferenceSession)
        result = run_fleet(scenario, FleetNode, FleetSession)
        for spans in (expected["spans"], result["spans"]):
            spans.sort(key=lambda span: span[4])      # stable, by track
        assert result == expected

    def test_the_oracle_sees_queues_gates_and_a_rescue(self):
        """A crowded example: what the property compares is not vacuous."""
        scenario = {
            "seed": 7, "tie_busy_ms": None, "nodes": [0, 4],
            "rate_hz": 120.0, "depth": 1,
            "sessions": [(GTA_SAN_ANDREAS, i % 2, float(i % 3))
                         for i in range(10)],
            "crash": (0, False),
        }
        result = run_fleet(scenario, FleetNode, FleetSession)
        assert result == run_fleet(scenario, ReferenceNode, ReferenceSession)
        waits = [s for s in result["spans"] if s[1] == "queue_wait"]
        assert any(s[3] > s[2] for s in waits)        # tasks queued
        assert result["rescued"] and result["rescued"][0]
        assert any(t[6] for t in result["tasks"])      # re-dispatched
        assert all(lost == 0 for _, lost, _ in result["sessions"])


# -- the orders the callbacks must keep ------------------------------------


def frame(seq, priority=0.0, session="other"):
    return FrameTask(
        session_id=session, seq=seq, fill_megapixels=50.0,
        commands_nominal=1000, width=1280, height=720,
        priority=priority, issued_at_ms=0.0,
    )


def integral_shield(busy_ms=16.0, name=NVIDIA_SHIELD.name):
    """A Shield on which every weightless frame takes exactly ``busy_ms``.

    Only the decompress cost is left, and a CPU whose perf index is that
    cost over ``busy_ms`` divides it back to exactly ``busy_ms`` (for the
    7, 10 and 16 ms used here).  With a whole-ms period every instant is
    an integer number of ms, so equal-timestamp ties are exact.
    """
    cpu = replace(NVIDIA_SHIELD.cpu,
                  perf_index=costs.DECOMPRESS_MS / busy_ms)
    return replace(NVIDIA_SHIELD, name=name, cpu=cpu)


def weightless_frame(seq, session="other"):
    return FrameTask(
        session_id=session, seq=seq, fill_megapixels=0.0,
        commands_nominal=0, width=0, height=0,
        priority=2.0, issued_at_ms=0.0,
    )


def integral_world(node_cls, session_cls):
    """One session on a Shield: 16 ms frames, a 10 ms period, a pipeline
    of one, so the gate binds on every frame after the first."""
    sim = Simulator(seed=0)
    config = FleetConfig(serve_rate_hz=100.0, pipeline_depth=1)
    session = session_cls(
        sim, SessionRequest("s", weightless(MODERN_COMBAT), arrival_ms=0.0),
        config, duration_ms=100.0,
    )
    node = node_cls(sim, integral_shield(),
                    on_complete=session.on_frame_complete)
    return sim, session, node


def serve_order(node_cls, session_cls, starts, priorities=None):
    """Sessions of 10 ms frames at 100 Hz (so a frame's service time
    equals the issue period), a pipeline of two, one Shield: the order in
    which the node answers their frames."""
    sim = Simulator(seed=0)
    config = FleetConfig(serve_rate_hz=100.0, pipeline_depth=2)
    served = []
    sessions = {}

    def answer(task):
        served.append((task.session_id, task.seq))
        sessions[task.session_id].on_frame_complete(task)

    node = node_cls(sim, integral_shield(10.0), on_complete=answer)
    for i, start in enumerate(starts):
        session = session_cls(
            sim, SessionRequest(f"s{i}", weightless(MODERN_COMBAT), 0.0),
            config, duration_ms=30.0,
        )
        if priorities is not None:
            session.priority = priorities[i]
        sessions[session.session_id] = session
        sim.call_at(start, lambda s=session: s.start(node))
    sim.run(until=1_000.0)
    return served


class TestOrders:
    def test_idle_node_starts_at_the_submit_instant(self, make_fleet_node):
        sim, node, _ = make_fleet_node()
        sim.run(until=12.5)
        task = frame(0)
        node.submit(task)
        # Service started inside submit: its wait is already on record.
        (wait,) = [s for s in sim.spans.spans if s.name == "queue_wait"]
        assert (wait.start_ms, wait.end_ms) == (12.5, 12.5)
        sim.run(until=1_000.0)
        (run,) = [s for s in sim.spans.spans if s.name == "execute"]
        assert run.start_ms == 12.5
        assert run.end_ms == 12.5 + node.service_time_ms(task)

    def test_queued_work_goes_before_the_answered_sessions_reissue(self):
        """A frees the node; B was already queued; the answer to A opens the
        session's gate and it reissues a more urgent frame C at once.  The
        node must serve B first: it takes its next task before answering,
        as the serving loop's ``get()`` committed to B before the woken
        session ran."""
        sim = Simulator(seed=0)
        config = FleetConfig(serve_rate_hz=1_000.0, pipeline_depth=1)
        session = FleetSession(
            sim, SessionRequest("action", MODERN_COMBAT, arrival_ms=0.0),
            config, duration_ms=2.0,
        )
        assert session.priority == 0.0
        served = []

        def answer(task):
            served.append((task.session_id, task.seq))
            if task.session_id == "action":
                session.on_frame_complete(task)

        node = FleetNode(sim, NVIDIA_SHIELD, on_complete=answer)
        session.start(node)                       # A: issued at t=0
        sim.call_at(0.5, lambda: node.submit(frame(0, priority=2.0)))  # B
        sim.run_until_event(session.finished, limit=10_000.0)
        assert served[:3] == [("action", 0), ("other", 0), ("action", 1)]

    def test_integral_world_is_integral(self):
        sim, session, node = integral_world(FleetNode, FleetSession)
        session.start(node)
        sim.run_until_event(session.finished, limit=10_000.0)
        ends = [s.end_ms for s in sim.spans.spans if s.name == "execute"]
        assert ends[:3] == [16.0, 32.0, 48.0]

    def test_no_zero_time_hops_without_a_tie(self):
        """Only the session's start is a zero-delay entry: the pickup of
        queued work and the gated reissue happen inside the completion."""
        sim, session, node = integral_world(FleetNode, FleetSession)
        delays = []
        call_later = sim.call_later

        def spy(delay, fn, *args):
            delays.append(delay)
            return call_later(delay, fn, *args)

        sim.call_later = spy
        session.start(node)
        node.submit(weightless_frame(0))          # frame 0 queues behind it
        sim.run_until_event(session.finished, limit=10_000.0)
        # Frame 0 was picked up from the queue at t=16, and every frame
        # after it waited at the gate (16 ms of service against a 10 ms
        # period) until t=96: neither spent a zero-delay entry.
        assert node.stats.frames_served == session.frames_issued + 1 == 7
        assert delays.count(0.0) == 1

    def test_an_issue_queues_its_tick_before_its_frames_completion(self):
        """A frame issued to an idle node starts at once, and with the
        service time equal to the period it completes together with the
        session's next tick.  The issue queues the tick first, as the loop
        did (the loop's start came a step later), so the tick still runs
        first: here the urgent session s0 then gets its second frame in
        ahead of s1's first."""
        starts, priorities = (0.0, 0.0), (0.0, 1.0)
        served = serve_order(FleetNode, FleetSession, starts, priorities)
        assert served == serve_order(
            ReferenceNode, ReferenceSession, starts, priorities)
        assert served[:3] == [("s0", 0), ("s0", 1), ("s0", 2)]

    def reissue_seen_by_a_same_instant_entry(self, node_cls, session_cls):
        sim, session, node = integral_world(node_cls, session_cls)
        session.start(node)
        seen = []
        # Queued at t=5, after the completion of frame 0 at t=16 was.
        sim.call_at(5.0, lambda: sim.call_at(
            16.0, lambda: seen.append(session.frames_issued)
        ))
        sim.run_until_event(session.finished, limit=10_000.0)
        return seen

    def test_a_reissue_queues_behind_a_same_instant_entry(self):
        """With integer-ms times the answer to frame 0 and another entry
        share t=16.  The session then issues frame 1 behind that entry, as
        the woken issue loop did, not inside the completing callback."""
        assert self.reissue_seen_by_a_same_instant_entry(
            FleetNode, FleetSession) == [1]
        assert self.reissue_seen_by_a_same_instant_entry(
            ReferenceNode, ReferenceSession) == [1]


class TestChangedTieRules:
    """The orders that changed, pinned with integer-ms times.

    Without ties the callbacks replay the loops exactly.  Under an exact
    tie the session still does: its wake queues behind whatever else is
    due (``TestOrders``).  The node no longer does.  Its loop took one
    zero-delay step between ``get()`` and acting on the task (start it,
    or strand it on a dead box), and same-instant entries already due ran
    in that step's gap.  The node now acts inside the callback that frees
    it or brings it work.  Three orders follow from that, one per test;
    each test runs the reference loops too, to show the old order.
    """

    def submit_then_fail_at_one_instant(self, node_cls):
        sim, _session, node = integral_world(node_cls, FleetSession)
        task = frame(0)
        sim.call_at(100.0, lambda: node.submit(task))
        sim.call_at(100.0, node.fail)
        sim.run(until=1_000.0)
        waits = [(s.start_ms, s.end_ms) for s in sim.spans.spans
                 if s.name == "queue_wait"]
        return waits, node.strand_all() == [task], task.completed

    def test_a_service_start_runs_before_a_same_instant_fail(self):
        """A ``fail`` due at the instant of a submission, but queued after
        it, used to strand the task unstarted; now the task starts first
        and is stranded when its service period ends."""
        assert self.submit_then_fail_at_one_instant(FleetNode) == (
            [(100.0, 100.0)], True, False)
        assert self.submit_then_fail_at_one_instant(ReferenceNode) == (
            [], True, False)

    def strand_order(self, node_cls):
        sim = Simulator(seed=0)
        node = node_cls(sim, integral_shield())
        first, queued, late = (weightless_frame(i) for i in range(3))
        node.submit(first)                        # in service until t=16
        node.submit(queued)
        # Due at t=16 too, but queued (at t=1) after the end of first's
        # service was.
        sim.call_at(1.0, lambda: sim.call_at(16.0, lambda: node.submit(late)))
        sim.call_at(5.0, node.fail)
        sim.run(until=1_000.0)
        return [t.seq for t in node.stranded]

    def test_a_dead_node_strands_its_queue_before_a_same_instant_arrival(
        self,
    ):
        """When a dead node's render ends, it hands its whole queue to the
        rescue at once; the loop handed each queued task over one step
        later, after a same-instant submission had been stranded."""
        assert self.strand_order(FleetNode) == [0, 1, 2]
        assert self.strand_order(ReferenceNode) == [0, 2, 1]

    def test_a_completion_can_overtake_a_same_instant_tick(self):
        """With the service time equal to the issue period (10 ms at
        100 Hz), a frame that starts at an instant completes together
        with the next tick of a session that ticked at that instant.  The
        loop started the frame a step after that tick, so the tick was
        queued first; now the frame starts at once and its completion is
        queued first, and the serve order drifts from t=70 on."""
        head = [("s0", 0), ("s1", 0), ("s0", 1), ("s1", 1), ("s2", 0),
                ("s0", 2)]
        starts = (0.0, 0.0, 10.0)
        assert serve_order(FleetNode, FleetSession, starts) == head + [
            ("s1", 2), ("s2", 1), ("s2", 2)]
        assert serve_order(ReferenceNode, ReferenceSession, starts) == head + [
            ("s2", 1), ("s1", 2), ("s2", 2)]


# -- reserved ticks: a session that always queues its tick as oracle -------


class EagerTickSession(FleetSession):
    """A fleet session whose every issue queues its next tick.

    ``FleetSession._issue`` only reserves the tick's place when the issue
    fills the pipeline, and the first answer settles it.  This is the
    issue that queued the tick every time, verbatim; with no place ever
    reserved, ``on_frame_complete`` opens the gate as it did then.
    """

    def _issue(self) -> None:
        commands = self.app.nominal_commands_per_frame
        if self.replay_warm:
            commands = max(1, int(commands * REPLAY_WARM_FACTOR))
        task = FrameTask(
            session_id=self.session_id,
            seq=self._seq,
            fill_megapixels=self.app.fill_mp_per_frame,
            commands_nominal=commands,
            width=self.app.render_width,
            height=self.app.render_height,
            priority=self.priority,
            issued_at_ms=self.sim.now,
        )
        self._seq += 1
        self.frames_issued += 1
        self.outstanding[task.seq] = task
        assert self.node is not None
        self.sim.call_later(self._period_ms, self._tick)
        self.node.submit(task)


@st.composite
def eager_scenarios(draw):
    """Fleets of 1–4 nodes and up to 12 sessions, mostly on the whole-ms
    grid, with what :func:`scenarios` leaves out there: service times
    equal to the period (5, 10 and 20 ms against 200, 100 and 50 Hz)
    and crashes, with and without a rejoin."""
    n_nodes = draw(st.integers(1, 4))
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "tie_busy_ms": draw(st.sampled_from([None, 5, 7, 10, 16, 20])),
        "nodes": draw(st.lists(st.integers(0, len(POOL) - 1),
                               min_size=n_nodes, max_size=n_nodes,
                               unique=True)),
        "sessions": draw(st.lists(
            st.tuples(st.sampled_from(APPS), st.integers(0, n_nodes - 1),
                      st.sampled_from([0.0, 1.0, 2.0])),
            min_size=1, max_size=12,
        )),
        "rate_hz": draw(st.sampled_from([50.0, 100.0, 200.0])),
        "depth": draw(st.integers(1, 3)),
        "crash": draw(
            st.none() | st.tuples(st.integers(0, 3), st.booleans())
        ),
    }


def assert_reserved_ticks_replay_eager_ticks(scenario):
    expected = run_fleet(scenario, FleetNode, EagerTickSession)
    assert run_fleet(scenario, FleetNode, FleetSession) == expected


class TestReservedTicks:
    @settings(max_examples=120, deadline=None)
    @given(scenario=eager_scenarios())
    def test_same_tasks_stats_strands_and_spans_in_full_order(
        self, scenario,
    ):
        """Every tie included: the spans are compared in full order."""
        assert_reserved_ticks_replay_eager_ticks(scenario)

    def test_the_oracle_sees_ties_at_passed_and_kept_places(
        self, monkeypatch,
    ):
        """A crowded grid example with a crash, a rescue and a rejoin, in
        which both kinds of settlement happen, each also at the answer's
        own instant: some answers find the tick's place still ahead and
        queue it, others find it passed."""
        scenario = {
            "seed": 0, "tie_busy_ms": 10, "nodes": [0, 1, 2],
            "rate_hz": 100.0, "depth": 2,
            "sessions": [(APPS[i % len(APPS)], i % 3, float(i % 3))
                         for i in range(12)],
            "crash": (1, True),
        }
        outcomes = []
        call_reserved = Simulator.call_reserved

        def spy(sim, place, fn, *args):
            kept = call_reserved(sim, place, fn, *args)
            outcomes.append((kept, place[0] == sim.now))
            return kept

        monkeypatch.setattr(Simulator, "call_reserved", spy)
        result = run_fleet(scenario, FleetNode, FleetSession)
        monkeypatch.undo()
        assert result == run_fleet(scenario, FleetNode, EagerTickSession)
        assert set(outcomes) == {
            (True, True), (True, False), (False, True), (False, False)}
        assert result["rescued"] and result["rescued"][0]
        assert any(span[1] == "node_rejoined" for span in result["spans"])


@pytest.mark.fuzz
def test_deep_reserved_ticks_replay_eager_ticks(request):
    """``TestReservedTicks`` at depth.  Selected with ``-m fuzz`` it draws
    1,500 examples; a plain run draws 30, so tier 1 stays fast."""
    deep = "fuzz" in (request.config.getoption("markexpr") or "")

    @settings(max_examples=1500 if deep else 30, deadline=None)
    @given(scenario=eager_scenarios())
    def identical(scenario):
        assert_reserved_ticks_replay_eager_ticks(scenario)

    identical()
