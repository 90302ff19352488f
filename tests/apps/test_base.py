"""Application specs, scene dynamics and command-batch generation."""

import pytest

from repro.apps.base import ApplicationSpec, CommandBatchBuilder, SceneState
from repro.apps.games import (
    CANDY_CRUSH,
    GAMES,
    GTA_SAN_ANDREAS,
    STAR_WARS_KOTOR,
)
from repro.apps.nongaming import EBOOK_READER
from repro.gles import enums as gl
from repro.gles.commands import make_command
from repro.gles.context import GLContext
from repro.sim.random import RandomStream


class TestSceneState:
    def test_touch_raises_activity_after_lag(self):
        scene = SceneState()
        scene.on_touch(1.0)
        assert scene.activity == 0.0  # not yet visible
        scene.advance(scene.touch_response_lag_s + 0.01)
        assert scene.activity > 0.3

    def test_activity_decays(self):
        scene = SceneState(activity=1.0)
        scene.advance(1.0)
        assert scene.activity < 0.2

    def test_activity_capped_at_one(self):
        scene = SceneState()
        for _ in range(20):
            scene.on_touch(1.0)
        scene.advance(0.5)
        assert scene.activity <= 1.0

    def test_change_fraction_bounds(self):
        spec = GTA_SAN_ANDREAS
        calm = SceneState(activity=0.0).change_fraction(spec)
        busy = SceneState(activity=1.0).change_fraction(spec)
        assert calm == pytest.approx(spec.base_change_fraction)
        assert busy == pytest.approx(spec.burst_change_fraction)

    def test_change_fraction_monotone_in_activity(self):
        spec = GTA_SAN_ANDREAS
        values = [
            SceneState(activity=a).change_fraction(spec)
            for a in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert values == sorted(values)

    def test_superlinear_response(self):
        """Half activity produces well under half the change range."""
        spec = GTA_SAN_ANDREAS
        mid = SceneState(activity=0.5).change_fraction(spec)
        span = spec.burst_change_fraction - spec.base_change_fraction
        assert mid < spec.base_change_fraction + 0.5 * span


class TestSpec:
    def test_local_fps_math(self):
        spec = GTA_SAN_ANDREAS
        # 156.5 MP per frame at 3.6 GP/s -> 23 FPS.
        assert spec.local_fps_on(3.6) == pytest.approx(23.0, abs=0.1)
        # Vsync cap applies.
        assert spec.local_fps_on(1000.0) == spec.target_fps

    def test_stream_scale(self):
        spec = GTA_SAN_ANDREAS
        assert spec.stream_scale == pytest.approx(900 / 36)

    def test_all_games_well_formed(self):
        for spec in GAMES.values():
            assert spec.fill_mp_per_frame > 0
            assert spec.cpu_ms_per_frame > 0
            assert 0 < spec.base_change_fraction < spec.burst_change_fraction
            assert spec.emitted_commands_per_frame <= (
                spec.nominal_commands_per_frame
            )


class TestCommandBatchBuilder:
    def make(self, seed=0):
        return CommandBatchBuilder(
            GTA_SAN_ANDREAS, RandomStream(seed, "builder")
        )

    def test_setup_commands_replayable(self):
        builder = self.make()
        ctx = GLContext(strict=True)
        ctx.execute_sequence(builder.setup_commands())
        assert ctx.current_program != 0
        assert len(ctx.textures) >= GTA_SAN_ANDREAS.textures_per_frame

    def test_frame_commands_replayable_on_context(self):
        builder = self.make()
        ctx = GLContext(strict=True)
        ctx.execute_sequence(builder.setup_commands())
        scene = SceneState(activity=0.5)
        for _ in range(10):
            ctx.execute_sequence(builder.frame_commands(scene))
        assert ctx.draw_calls > 10

    def test_frame_before_setup_raises(self):
        builder = self.make()
        with pytest.raises(RuntimeError):
            builder.frame_commands(SceneState())

    def test_batch_size_near_emitted_target(self):
        builder = self.make()
        builder.setup_commands()
        batch = builder.frame_commands(SceneState(activity=0.2))
        target = GTA_SAN_ANDREAS.emitted_commands_per_frame
        assert target * 0.5 <= len(batch) <= target * 1.5

    def test_active_scenes_upload_more(self):
        def upload_bytes(activity, seed):
            builder = CommandBatchBuilder(
                GTA_SAN_ANDREAS, RandomStream(seed, "b")
            )
            builder.setup_commands()
            total = 0
            scene = SceneState(activity=activity)
            for _ in range(50):
                for cmd in builder.frame_commands(scene):
                    if cmd.name == "glVertexAttribPointer" and isinstance(
                        cmd.args[5], (bytes, bytearray)
                    ):
                        total += len(cmd.args[5])
            return total

        assert upload_bytes(0.9, 1) > upload_bytes(0.0, 1)

    def test_deterministic_for_seed(self):
        a, b = self.make(7), self.make(7)
        a.setup_commands()
        b.setup_commands()
        scene_a, scene_b = SceneState(activity=0.3), SceneState(activity=0.3)
        batch_a = a.frame_commands(scene_a)
        batch_b = b.frame_commands(scene_b)
        assert [c.key() for c in batch_a] == [c.key() for c in batch_b]

    def test_vertex_payload_is_compressible(self):
        """Real geometry is low-entropy; the synthetic stand-in must be."""
        from repro.codec.lz77 import compression_ratio

        builder = self.make()
        payload = builder._vertex_payload(256, seed=5)
        assert compression_ratio(payload) < 0.35

    @pytest.mark.parametrize("vertices", [48, 1024])
    def test_vertex_payload_memo_matches_the_loop(self, vertices):
        """The memo is keyed on (vertices, base); every one of the 64 bases
        must give exactly the bytes the per-call loop built."""

        def reference(seed):
            out = bytearray()
            base = (seed * 2654435761 + 12345) & 0x3F
            for i in range(vertices * 5):
                low = (base + (i % 16) * 3) & 0x3F
                out += bytes((low, (i % 5) * 16, 0x3E, 0x41))
            return bytes(out)

        builder = self.make()
        bases = set()
        # The multiplier is odd, so seeds 0..63 hit every 6-bit base; the
        # second lap re-reads each base from the memo.
        for seed in range(128):
            bases.add((seed * 2654435761 + 12345) & 0x3F)
            payload = builder._vertex_payload(vertices, seed=seed)
            assert payload == reference(seed)
        assert len(bases) == 64

    def test_texture_payload_is_compressible(self):
        from repro.codec.lz77 import compression_ratio

        builder = self.make()
        payload = builder._texture_payload(64, 0)
        assert compression_ratio(payload) < 0.1


def reference_frame_commands(builder, scene):
    """One frame built the way the builder did before it reused its
    commands: every command constructed afresh, the rng drawn in the same
    order.  The oracle for the builder's reuse."""
    n = builder.spec.emitted_commands_per_frame
    activity = scene.activity
    cmds = [
        make_command(
            "glClear", gl.GL_COLOR_BUFFER_BIT | gl.GL_DEPTH_BUFFER_BIT
        ),
        make_command("glUseProgram", builder._program),
    ]
    if activity > 0.02 or scene.frames_in_scene % 120 == 0:
        angle = (builder._frame_index % 3600) * 0.1 * (0.2 + activity)
        cmds.append(make_command(
            "glUniformMatrix4fv", builder._u_mvp, 1, False,
            builder._rotation_matrix(angle),
        ))
    draw_slots = max(1, max(1, n - len(cmds) - 2) // 4)
    for slot in range(draw_slots):
        tex = builder._texture_names[
            (slot + scene.scene_id) % len(builder._texture_names)
        ]
        cmds.append(make_command("glBindTexture", gl.GL_TEXTURE_2D, tex))
        if builder.rng.random() < 0.05 + 0.2 * activity:
            dynamic = builder._vertex_payload(
                48, seed=builder._frame_index * 31 + slot
            )
            cmds.append(make_command(
                "glVertexAttribPointer", 0, 3, gl.GL_FLOAT, False, 20,
                dynamic,
            ))
        else:
            cmds.append(make_command(
                "glVertexAttribPointer", 0, 3, gl.GL_FLOAT, False, 20, 0,
            ))
        vertex_count = 6 * (2 + int(6 * activity))
        cmds.append(
            make_command("glDrawArrays", gl.GL_TRIANGLES, 0, vertex_count)
        )
    builder._frame_index += 1
    return cmds


@pytest.mark.parametrize(
    "spec,seed",
    [(GTA_SAN_ANDREAS, 11), (STAR_WARS_KOTOR, 12), (CANDY_CRUSH, 13),
     (EBOOK_READER, 14)],
    ids=lambda v: getattr(v, "genre", v),
)
def test_builder_frames_equal_the_fresh_construction(spec, seed):
    """One seed per genre: the reused commands are ``==`` (and ``repr``-
    identical) to freshly built ones, frame for frame, and the rng ends in
    the same state."""
    assert spec.genre in ("action", "roleplaying", "puzzle", "app")
    builder = CommandBatchBuilder(spec, RandomStream(seed, "builder"))
    oracle = CommandBatchBuilder(spec, RandomStream(seed, "builder"))
    assert builder.setup_commands() == oracle.setup_commands()
    scene, oracle_scene = SceneState(), SceneState()
    for i in range(400):
        if i % 37 < 6:      # bursts of touches: activity, cuts, camera
            scene.on_touch(1.0)
            oracle_scene.on_touch(1.0)
        frame = builder.frame_commands(scene)
        expected = reference_frame_commands(oracle, oracle_scene)
        assert frame == expected
        assert repr([c.args for c in frame]) == repr(
            [c.args for c in expected]
        )
        scene.advance(1 / 30)
        oracle_scene.advance(1 / 30)
    assert scene.scene_id > 0
    assert builder.rng._rng.getstate() == oracle.rng._rng.getstate()
