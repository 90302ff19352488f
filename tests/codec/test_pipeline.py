"""The serialize -> cache -> compress egress pipeline."""

import pytest

from repro.apps.base import CommandBatchBuilder, SceneState
from repro.apps.games import GTA_SAN_ANDREAS
from repro.codec.command_cache import REFERENCE_BYTES
from repro.codec.pipeline import CommandPipeline, PipelineConfig
from repro.gles import enums as gl
from repro.gles.commands import GLCommand, make_command
from repro.gles.serialization import ClientArray, serialize_command
from repro.sim.random import RandomStream


def frame_batch(builder, activity=0.2):
    scene = SceneState(activity=activity)
    return builder.frame_commands(scene)


def make_builder(seed=0):
    return CommandBatchBuilder(GTA_SAN_ANDREAS, RandomStream(seed, "pipe"))


class TestStages:
    def test_all_stages_reduce_bytes(self):
        pipeline = CommandPipeline(
            PipelineConfig(modelled_compression=False)
        )
        builder = make_builder()
        pipeline.process_frame(builder.setup_commands())
        for _ in range(40):
            pipeline.process_frame(frame_batch(builder))
        assert pipeline.total_after_cache < pipeline.total_raw
        assert pipeline.total_wire < pipeline.total_after_cache
        assert pipeline.overall_reduction > 0.4

    def test_cache_disabled_passthrough(self):
        pipeline = CommandPipeline(
            PipelineConfig(cache_enabled=False, compression_enabled=False)
        )
        builder = make_builder()
        builder.setup_commands()
        for _ in range(5):
            egress = pipeline.process_frame(frame_batch(builder))
            assert egress.wire_bytes == egress.raw_bytes
            assert egress.cache_hits == 0

    def test_compression_only(self):
        pipeline = CommandPipeline(
            PipelineConfig(cache_enabled=False, compression_enabled=True,
                           modelled_compression=False)
        )
        builder = make_builder()
        pipeline.process_frame(builder.setup_commands())
        egress = pipeline.process_frame(frame_batch(builder))
        assert egress.wire_bytes < egress.raw_bytes
        assert egress.after_cache_bytes == egress.raw_bytes

    def test_real_compression_payload_decompresses(self):
        from repro.codec.lz77 import decompress

        pipeline = CommandPipeline(
            PipelineConfig(modelled_compression=False)
        )
        builder = make_builder()
        pipeline.process_frame(builder.setup_commands())
        egress = pipeline.process_frame(frame_batch(builder))
        assert egress.payload is not None
        decompress(egress.payload)  # must not raise

    def test_modelled_compression_tracks_real(self):
        real = CommandPipeline(PipelineConfig(modelled_compression=False))
        modelled = CommandPipeline(
            PipelineConfig(modelled_compression=True, measure_every=16)
        )
        b1, b2 = make_builder(3), make_builder(3)
        real.process_frame(b1.setup_commands())
        modelled.process_frame(b2.setup_commands())
        for _ in range(100):
            real.process_frame(frame_batch(b1))
            modelled.process_frame(frame_batch(b2))
        # Within 2x either way: the modelled path smooths per-frame variance
        # with an EWMA so exact per-session agreement is not expected.
        assert 0.5 < modelled.total_wire / real.total_wire < 2.0

    def test_cache_hits_accounted(self):
        pipeline = CommandPipeline(PipelineConfig(modelled_compression=True))
        builder = make_builder()
        pipeline.process_frame(builder.setup_commands())
        pipeline.process_frame(frame_batch(builder, activity=0.0))
        egress = pipeline.process_frame(frame_batch(builder, activity=0.0))
        assert egress.cache_hits > 0

    def test_deferred_pointers_flow_through(self):
        """Vertex pointers defer inside the pipeline's serializer too."""
        pipeline = CommandPipeline(PipelineConfig())
        from repro.gles import enums as gl
        from repro.gles.serialization import ClientArray

        cmds = [
            make_command(
                "glVertexAttribPointer", 0, 3, gl.GL_FLOAT, False, 0,
                ClientArray(bytes(1200)),
            ),
            make_command("glDrawArrays", gl.GL_TRIANGLES, 0, 10),
        ]
        egress = pipeline.process_frame(cmds)
        assert egress.commands == 2  # pointer resolved + draw

    def test_empty_frame(self):
        pipeline = CommandPipeline(PipelineConfig())
        egress = pipeline.process_frame([])
        assert egress.raw_bytes == 0
        assert egress.wire_bytes <= 1


class TestKeying:
    """Every resolved command is cached under its own key.

    A deferred pointer travels with the draw that flushes it, but it is
    keyed by itself: caching it under the draw's key let the draw "hit"
    on the pointer's bytes and never travel.
    """

    @staticmethod
    def frame():
        return [
            make_command(
                "glVertexAttribPointer", 0, 3, gl.GL_FLOAT, False, 0,
                ClientArray(bytes(range(120))),
            ),
            make_command("glDrawArrays", gl.GL_TRIANGLES, 0, 10),
        ]

    def test_deferred_pointer_is_keyed_by_itself(self):
        pipeline = CommandPipeline(PipelineConfig(compression_enabled=False))
        first = pipeline.process_frame(self.frame())
        assert first.commands == 2
        assert first.cache_hits == 0
        entries = pipeline.cache.sender.items()
        assert [key[0] for key, _ in entries] == [
            "glVertexAttribPointer", "glDrawArrays",
        ]
        for key, wire in entries:
            assert wire == serialize_command(GLCommand(key[0], key[1]))
        assert first.payload == b"".join(wire for _, wire in entries)
        assert first.raw_bytes == len(first.payload)

        second = pipeline.process_frame(self.frame())
        assert second.cache_hits == 2
        assert second.raw_bytes == first.raw_bytes
        assert second.after_cache_bytes == 2 * REFERENCE_BYTES
