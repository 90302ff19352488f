"""Fleet node: serving, priorities, crash stranding."""

import itertools

import pytest

from repro.apps.games import GAMES
from repro.core import costs
from repro.devices.profiles import DELL_M4600, NVIDIA_SHIELD, SERVICE_DEVICES
from repro.experiments.fleet import make_fleet_pool
from repro.fleet import FleetNode, FrameTask, STATE_PRIORITY
from repro.fleet.controller import MIGRATION_STATE_FACTOR
from repro.fleet.session import REPLAY_WARM_FACTOR


def frame(seq, priority=0.0, fill=50.0, session="s0"):
    return FrameTask(
        session_id=session, seq=seq, fill_megapixels=fill,
        commands_nominal=1000, width=1280, height=720,
        priority=priority, issued_at_ms=0.0,
    )


class TestServiceMemo:
    """The memoized charge equals the pure cost model on every shape."""

    @staticmethod
    def shapes():
        """Each title's command counts (cold, replay-warm, migration
        snapshot) with its fill and none, at its size and halved in either
        dimension, as frame and as state: every shape a fleet issues, and
        shapes that differ in one field only."""
        for app in GAMES.values():
            cold = app.nominal_commands_per_frame
            warm = max(1, int(cold * REPLAY_WARM_FACTOR))
            snapshot = int(cold * MIGRATION_STATE_FACTOR)
            w, h = app.render_width, app.render_height
            for commands, fill, (width, height), kind in itertools.product(
                (cold, warm, snapshot),
                (app.fill_mp_per_frame, 0.0),
                ((w, h), (w // 2, h), (w, h // 2)),
                ("frame", "state"),
            ):
                yield FrameTask(
                    session_id=app.short_name, seq=0,
                    fill_megapixels=fill, commands_nominal=commands,
                    width=width, height=height,
                    priority=0.0, issued_at_ms=0.0, kind=kind,
                )

    @pytest.mark.parametrize(
        "spec", make_fleet_pool(len(SERVICE_DEVICES)),
        ids=lambda spec: spec.name,
    )
    def test_memo_equals_the_direct_charge(self, sim, spec):
        node = FleetNode(sim, spec)
        tasks = list(self.shapes())
        for task in tasks + tasks:        # the second pass reads the memo
            if task.kind == "state":
                expected = costs.decode_ms(spec.cpu, task.commands_nominal)
            else:
                expected = costs.frame_ms(
                    spec.cpu, task.commands_nominal, task.fill_megapixels,
                    spec.gpu.fillrate_gpixels, task.width * task.height,
                    costs.encode_mp_per_s(spec.cpu),
                )
            assert node.service_time_ms(task) == expected


class TestServing:
    def test_serves_a_frame_and_reports_completion(self, make_fleet_node):
        sim, node, done = make_fleet_node()
        task = frame(0)
        node.submit(task)
        sim.run(until=1_000.0)
        assert task.completed
        assert done == [task]
        assert node.stats.frames_served == 1
        assert node.queued_workload_mp == 0.0

    def test_service_time_scales_with_fill(self, make_fleet_node):
        sim, node, _ = make_fleet_node()
        light = node.service_time_ms(frame(0, fill=10.0))
        heavy = node.service_time_ms(frame(1, fill=100.0))
        assert heavy > light

    def test_x86_charges_es_translation(self, make_fleet_node):
        _, shield, _ = make_fleet_node(NVIDIA_SHIELD)
        _, desktop, _ = make_fleet_node(DELL_M4600)
        task = frame(0, fill=0.0)
        task.kind = "state"       # CPU-only path: no render, no encode
        # Same command count; only the x86 box pays the GL-to-ES shim.
        arm_cpu = shield.service_time_ms(task)
        x86_cpu = desktop.service_time_ms(task)
        expected_extra = (
            task.commands_nominal * costs.ES_TRANSLATE_US_PER_COMMAND
            / 1000.0 / DELL_M4600.cpu.perf_index
        )
        base_ratio = shield.spec.cpu.perf_index / DELL_M4600.cpu.perf_index
        assert x86_cpu == pytest.approx(arm_cpu * base_ratio + expected_extra)

    def test_priority_order_action_overtakes_tolerant(self, make_fleet_node):
        sim, node, done = make_fleet_node()
        node.submit(frame(0, priority=2.0))
        sim.run(until=0.5)            # s0 is on the GPU
        # Queue behind it while it renders.
        node.submit(frame(1, priority=2.0, session="tolerant"))
        node.submit(frame(2, priority=0.0, session="action"))
        sim.run(until=5_000.0)
        assert [t.session_id for t in done] == ["s0", "action", "tolerant"]

    def test_state_replay_overtakes_everything(self, make_fleet_node):
        sim, node, done = make_fleet_node()
        node.submit(frame(0, priority=0.0))
        sim.run(until=0.5)            # s0 is on the GPU
        node.submit(frame(1, priority=0.0, session="later"))
        state = frame(2, priority=STATE_PRIORITY, session="migrant")
        state.kind = "state"
        node.submit(state)
        sim.run(until=5_000.0)
        assert [t.session_id for t in done] == ["s0", "migrant", "later"]
        assert state.completed            # served ahead of 'later'
        assert state.completed_at_ms < done[-1].completed_at_ms
        assert node.stats.state_replays == 1


class TestCrash:
    def test_submissions_to_a_dead_node_are_stranded(self, make_fleet_node):
        sim, node, done = make_fleet_node()
        node.fail()
        task = frame(0)
        node.submit(task)
        sim.run(until=2_000.0)
        assert not task.completed
        assert node.strand_all() == [task]

    def test_strand_all_collects_queue_and_current(self, make_fleet_node):
        sim, node, _ = make_fleet_node()
        first, second = frame(0), frame(1)
        node.submit(first)
        node.submit(second)
        sim.run(until=0.5)            # first is on the GPU, second queued
        node.fail()
        stranded = node.strand_all()
        assert set(t.seq for t in stranded) == {0, 1}
        assert node.queued_workload_mp == 0.0

    def test_mid_render_frame_survives_until_detection(self, make_fleet_node):
        """The crash drops the in-flight frame into the stranded list even
        when its service period elapses before anyone calls strand_all."""
        sim, node, done = make_fleet_node()
        task = frame(0)
        node.submit(task)
        sim.run(until=0.5)
        node.fail()
        sim.run(until=5_000.0)        # busy period long over
        assert not task.completed
        assert done == []
        assert node.strand_all() == [task]

    def test_short_glitch_requeues_stranded_work_locally(self, make_fleet_node):
        sim, node, done = make_fleet_node()
        node.fail()
        task = frame(0)
        node.submit(task)
        sim.run(until=100.0)
        node.rejoin()
        sim.run(until=5_000.0)
        assert task.completed
        assert done == [task]

    def test_migrated_task_is_not_double_served(self, make_fleet_node):
        sim, node, done = make_fleet_node()
        task = frame(0)
        node.submit(task)
        sim.run(until=0.5)
        node.fail()
        # Controller rescues and re-homes the task elsewhere.
        stranded = node.strand_all()
        assert stranded == [task]
        task.assigned_node = "elsewhere"
        node.rejoin()
        sim.run(until=5_000.0)
        assert not task.completed     # this node never finished it
        assert done == []
