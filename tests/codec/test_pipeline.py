"""The serialize -> cache -> compress egress pipeline."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.base import CommandBatchBuilder, SceneState
from repro.apps.games import GTA_SAN_ANDREAS
from repro.check.fuzz import _pipeline_state
from repro.codec.command_cache import (
    REFERENCE_BYTES,
    REFERENCE_MARKER,
    key_digest,
)
from repro.codec.lz77 import compress
from repro.codec.pipeline import (
    COMPRESS_MEMO_LIMIT,
    FRAME_TEMPLATE_LIMIT,
    LZ77_MAX_CHAIN,
    CommandPipeline,
    PipelineConfig,
)
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


# -- the frame template ---------------------------------------------------------
#
# A frame made of the very command objects of a recorded frame replays its
# recorded cache outcome.  The oracle is the same stream with every command
# ``copy.copy``'d per frame: copies are new objects, so that pipeline never
# takes a template and runs the full resolve -> cache path every frame.

_POINTER_DATA = bytes((i * 7) % 256 for i in range(96))


def _command(spec):
    kind = spec[0]
    if kind == "bind":
        return make_command("glBindTexture", gl.GL_TEXTURE_2D, spec[1])
    if kind == "uniform":
        return make_command("glUniform1f", spec[1], spec[2])
    if kind == "matrix":
        return make_command(
            "glUniformMatrix4fv", 0, 1, False, (1.0, spec[1]) * 8
        )
    if kind == "ptr":
        _, index, source = spec
        pointer = {
            "client": ClientArray(_POINTER_DATA, array_id=index),
            "vbo": 16 * index,
            "inline": _POINTER_DATA[: 12 * (index + 1)],
        }[source]
        return make_command(
            "glVertexAttribPointer", index, 3, gl.GL_FLOAT, False, 0, pointer
        )
    return make_command("glDrawArrays", gl.GL_TRIANGLES, spec[1], spec[2])


_SPECS = st.one_of(
    st.tuples(st.just("bind"), st.integers(0, 5)),
    st.tuples(st.just("uniform"), st.integers(0, 2),
              st.sampled_from([0.0, -0.0, 1, 1.0, 0.5])),
    st.tuples(st.just("matrix"), st.sampled_from([0.0, -0.0, 0.25])),
    st.tuples(st.just("ptr"), st.integers(0, 1),
              st.sampled_from(["client", "vbo", "inline"])),
    st.tuples(st.just("draw"), st.integers(0, 2), st.integers(0, 8)),
)
#: a frame is either a fresh list of (spec, build a new object?) pairs or
#: a repeat of an earlier frame, object for object
_FRAMES = st.lists(
    st.one_of(
        st.lists(st.tuples(_SPECS, st.booleans()), max_size=12),
        st.integers(0, 50),
    ),
    min_size=1,
    max_size=24,
)


def _decode(frames):
    shared = {}
    out = []
    for frame in frames:
        if isinstance(frame, int):
            out.append(list(out[frame % len(out)]) if out else [])
            continue
        cmds = []
        for spec, fresh in frame:
            if fresh:
                cmds.append(_command(spec))
            else:
                if repr(spec) not in shared:
                    shared[repr(spec)] = _command(spec)
                cmds.append(shared[repr(spec)])
        out.append(cmds)
    return out


@settings(max_examples=150, deadline=None)
@given(
    frames=_FRAMES,
    capacity=st.integers(2, 8),
    fusion=st.booleans(),
    compression=st.booleans(),
)
def test_property_template_matches_the_full_path(
    frames, capacity, fusion, compression
):
    def pipeline():
        return CommandPipeline(PipelineConfig(
            cache_capacity=capacity, fusion_enabled=fusion,
            compression_enabled=compression,
        ))

    reused, copied = pipeline(), pipeline()
    for frame in _decode(frames):
        egress = reused.process_frame(frame)
        assert egress == copied.process_frame([copy.copy(c) for c in frame])
        assert _pipeline_state(reused) == _pipeline_state(copied)
    assert copied.template_hits == 0


class TestFrameTemplate:
    @staticmethod
    def frame():
        return [
            make_command("glUseProgram", 3),
            make_command("glBindTexture", gl.GL_TEXTURE_2D, 4),
            make_command(
                "glVertexAttribPointer", 0, 3, gl.GL_FLOAT, False, 20, 0
            ),
            make_command("glDrawArrays", gl.GL_TRIANGLES, 0, 6),
        ]

    def test_repeated_frame_takes_the_template(self):
        pipeline = CommandPipeline(PipelineConfig(compression_enabled=False))
        frame = self.frame()
        first = pipeline.process_frame(frame)
        again = pipeline.process_frame(list(frame))
        assert pipeline.template_hits == 1
        assert again.cache_hits == again.commands == first.commands
        assert again.raw_bytes == first.raw_bytes
        assert again.payload == b"".join(
            REFERENCE_MARKER + key_digest(key)
            for key in pipeline.cache.sender.keys_in_order()
        )
        assert pipeline.serializer.deferrals == 2

    def test_receiver_desync_on_a_template_hit_raises(self):
        frame = self.frame()
        reused = CommandPipeline(PipelineConfig(compression_enabled=False))
        copied = CommandPipeline(PipelineConfig(compression_enabled=False))
        for pipeline, make in ((reused, list),
                               (copied, lambda f: [copy.copy(c) for c in f])):
            pipeline.process_frame(make(frame))
            pipeline.process_frame(make(frame))
            # the receiver loses its second entry: the first key still hits
            del pipeline.cache.receiver._entries[("glBindTexture", (
                gl.GL_TEXTURE_2D, 4))]
            with pytest.raises(RuntimeError, match="cache desync"):
                pipeline.process_frame(make(frame))
        assert reused.template_hits == 2
        assert copied.template_hits == 0
        receiver = reused.cache.receiver.stats
        assert (receiver.hits, receiver.misses) == (4 + 1, 1)
        assert reused.cache.sender.stats.hits == 4 + 2
        assert _pipeline_state(reused) == _pipeline_state(copied)

    def test_templates_stay_within_their_bound(self):
        pipeline = CommandPipeline(PipelineConfig(compression_enabled=False))
        for i in range(FRAME_TEMPLATE_LIMIT + 40):
            pipeline.process_frame(
                [make_command("glBindTexture", gl.GL_TEXTURE_2D, i % 7)]
            )
            assert len(pipeline._templates) <= FRAME_TEMPLATE_LIMIT
        assert len(pipeline._templates) == FRAME_TEMPLATE_LIMIT

    def test_pending_pointer_at_the_frame_start_skips_the_template(self):
        pipeline = CommandPipeline(PipelineConfig(compression_enabled=False))
        frame = self.frame()
        pipeline.process_frame(frame)
        pipeline.process_frame([frame[2]])   # held across the boundary
        pipeline.process_frame(frame)
        assert pipeline.template_hits == 0


class TestCompressorMemo:
    def test_payloads_are_the_compressor_output(self):
        config = PipelineConfig(modelled_compression=False)
        plain = CommandPipeline(
            PipelineConfig(modelled_compression=False,
                           compression_enabled=False)
        )
        pipeline = CommandPipeline(config)
        builder_a, builder_b = make_builder(5), make_builder(5)
        plain.process_frame(builder_a.setup_commands())
        pipeline.process_frame(builder_b.setup_commands())
        for i in range(3 * COMPRESS_MEMO_LIMIT):
            activity = 0.0 if i % 3 else 0.6
            batch = plain.process_frame(frame_batch(builder_a, activity))
            egress = pipeline.process_frame(frame_batch(builder_b, activity))
            assert egress.payload == compress(
                batch.payload, max_chain=LZ77_MAX_CHAIN
            )
            assert len(pipeline._compressed) <= COMPRESS_MEMO_LIMIT
