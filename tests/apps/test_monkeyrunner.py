"""MonkeyRunner-style scripted input."""

import pytest

from repro.apps.engine import EngineConfig, GameEngine
from repro.apps.games import GTA_SAN_ANDREAS
from repro.apps.monkeyrunner import InputScript, ScriptedTouchPlayer
from repro.apps.touch import TouchEvent
from repro.baselines.local import LocalBackend
from repro.devices.profiles import LG_NEXUS_5
from repro.devices.runtime import UserDeviceRuntime
from repro.sim.kernel import Simulator
from tests.gc_guard import assert_frees_itself


def make_script(times=(100.0, 250.0, 900.0)):
    return InputScript(
        events=[TouchEvent(time_ms=t, x=0.5, y=0.5, strength=1.0)
                for t in times],
        name="test",
    )


class TestScript:
    def test_json_roundtrip(self):
        script = make_script()
        restored = InputScript.from_json(script.to_json())
        assert [e.time_ms for e in restored.events] == [100.0, 250.0, 900.0]
        assert restored.name == "test"

    def test_file_roundtrip(self, tmp_path):
        script = make_script()
        path = tmp_path / "input.json"
        script.save(path)
        assert len(InputScript.load(path)) == 3

    def test_unordered_events_rejected(self):
        script = InputScript(
            events=[TouchEvent(time_ms=10.0, x=0, y=0),
                    TouchEvent(time_ms=5.0, x=0, y=0)]
        )
        with pytest.raises(ValueError):
            script.validate()

    def test_bad_version_rejected(self):
        with pytest.raises(ValueError):
            InputScript.from_json('{"version": 999, "events": []}')

    def test_record_from_generator_deterministic(self):
        a = InputScript.record_from_generator(
            GTA_SAN_ANDREAS, duration_ms=20_000.0, seed=4
        )
        b = InputScript.record_from_generator(
            GTA_SAN_ANDREAS, duration_ms=20_000.0, seed=4
        )
        assert [e.time_ms for e in a.events] == [e.time_ms for e in b.events]
        assert len(a) > 5


class TestPlayer:
    def test_events_fire_at_script_times(self):
        sim = Simulator()
        fired = []
        ScriptedTouchPlayer(
            sim, make_script(), on_touch=lambda e: fired.append(e.time_ms)
        )
        sim.run(until=2_000.0)
        assert fired == [100.0, 250.0, 900.0]

    def test_loop_repeats_script(self):
        sim = Simulator()
        fired = []
        ScriptedTouchPlayer(
            sim, make_script(), on_touch=lambda e: fired.append(e.time_ms),
            loop=True,
        )
        sim.run(until=2_000.0)
        assert len(fired) >= 6
        assert fired[3] == pytest.approx(1_000.0)  # second pass offset

    def test_looping_script_of_zero_duration_rejected(self):
        sim = Simulator()
        script = InputScript(events=[
            TouchEvent(time_ms=0.0, x=0.5, y=0.5),
            TouchEvent(time_ms=0.0, x=0.2, y=0.2),
        ])
        with pytest.raises(ValueError, match="must span time"):
            ScriptedTouchPlayer(sim, script, loop=True)
        ScriptedTouchPlayer(sim, script)          # played once, it ends
        ScriptedTouchPlayer(sim, InputScript(), loop=True)

    def test_empty_script_is_noop(self):
        sim = Simulator()
        ScriptedTouchPlayer(sim, InputScript())
        sim.run(until=100.0)

    def test_count_in_window(self):
        sim = Simulator()
        player = ScriptedTouchPlayer(sim, make_script())
        sim.run(until=2_000.0)
        assert player.count_in_window(0.0, 300.0) == 2


class TestEngineIntegration:
    def run_session(self, script, seed=0):
        sim = Simulator(seed=seed)
        device = UserDeviceRuntime(
            sim, LG_NEXUS_5,
            render_width=GTA_SAN_ANDREAS.render_width,
            render_height=GTA_SAN_ANDREAS.render_height,
        )
        engine = GameEngine(
            sim, GTA_SAN_ANDREAS, device, LocalBackend(sim, device),
            EngineConfig(duration_ms=15_000.0, input_script=script),
        )
        engine.run(limit=60_000.0)
        return engine

    def test_scripted_sessions_see_identical_input(self):
        script = InputScript.record_from_generator(
            GTA_SAN_ANDREAS, duration_ms=15_000.0, seed=1
        )
        a = self.run_session(script)
        b = self.run_session(script)
        touches_a = [f.touches_since_last for f in a.frames]
        touches_b = [f.touches_since_last for f in b.frames]
        assert touches_a == touches_b
        assert sum(touches_a) > 0

    def test_scripted_input_drives_scene_activity(self):
        dense = InputScript(
            events=[TouchEvent(time_ms=float(t), x=0.5, y=0.5)
                    for t in range(500, 10_000, 100)]
        )
        quiet = InputScript(events=[])
        busy_engine = self.run_session(dense)
        calm_engine = self.run_session(quiet)
        busy_change = sum(f.change_fraction for f in busy_engine.frames)
        calm_change = sum(f.change_fraction for f in calm_engine.frames)
        assert busy_change > calm_change

    def test_a_torn_down_scripted_engine_frees_itself(self):
        # The player's callback points back at the engine that owns it;
        # the player drops it when the simulator is torn down.
        script = make_script(times=(100.0, 400.0))

        def run():
            sim = Simulator(seed=0)
            device = UserDeviceRuntime(
                sim, LG_NEXUS_5,
                render_width=GTA_SAN_ANDREAS.render_width,
                render_height=GTA_SAN_ANDREAS.render_height,
            )
            engine = GameEngine(
                sim, GTA_SAN_ANDREAS, device, LocalBackend(sim, device),
                EngineConfig(duration_ms=1_000.0, input_script=script),
            )
            engine.run(limit=4_000.0)
            sim.teardown()

        assert_frees_itself(run)
