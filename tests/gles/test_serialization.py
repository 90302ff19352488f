"""Wire format round-trips and deferred vertex-pointer handling."""

import pytest
from hypothesis import given, settings, strategies as st

import struct

from repro.codec.command_cache import REFERENCE_MARKER
from repro.codec.pipeline import REPLAY_HIT_MARKER
from repro.gles import enums as gl
from repro.gles.commands import COMMANDS, ParamType, make_command
from repro.gles.serialization import (
    MAGIC,
    POINTER_MEMO_LIMIT,
    ClientArray,
    CommandSerializer,
    DeferredPointerBuffer,
    SerializationError,
    deserialize_command,
    deserialize_stream,
    serialize_command,
    serialize_stream,
)


def roundtrip(cmd):
    wire = serialize_command(cmd)
    decoded, offset = deserialize_command(wire)
    assert offset == len(wire)
    return decoded


class TestRoundTrip:
    def test_ints_and_enums(self):
        cmd = make_command("glViewport", -5, 0, 1280, 720)
        decoded = roundtrip(cmd)
        assert decoded.name == "glViewport"
        assert decoded.args == (-5, 0, 1280, 720)

    def test_floats(self):
        cmd = make_command("glClearColor", 0.25, 0.5, 0.75, 1.0)
        decoded = roundtrip(cmd)
        assert decoded.args == pytest.approx((0.25, 0.5, 0.75, 1.0))

    def test_bools(self):
        cmd = make_command("glDepthMask", True)
        assert roundtrip(cmd).args == (True,)
        cmd = make_command("glDepthMask", False)
        assert roundtrip(cmd).args == (False,)

    def test_strings(self):
        source = "void main() { gl_Position = vec4(0.0); } // ünïcode"
        cmd = make_command("glShaderSource", 3, source)
        assert roundtrip(cmd).args == (3, source)

    def test_blobs(self):
        payload = bytes(range(256))
        cmd = make_command(
            "glBufferData", gl.GL_ARRAY_BUFFER, len(payload), payload,
            gl.GL_STATIC_DRAW,
        )
        assert roundtrip(cmd).args[2] == payload

    def test_none_blob_becomes_empty(self):
        cmd = make_command(
            "glTexImage2D", gl.GL_TEXTURE_2D, 0, gl.GL_RGBA, 4, 4, 0,
            gl.GL_RGBA, gl.GL_UNSIGNED_BYTE, None,
        )
        assert roundtrip(cmd).args[8] == b""

    def test_int_arrays(self):
        cmd = make_command("glDeleteBuffers", 3, (7, 8, 9))
        assert roundtrip(cmd).args == (3, (7, 8, 9))

    def test_float_arrays(self):
        matrix = tuple(float(i) for i in range(16))
        cmd = make_command("glUniformMatrix4fv", 0, 1, False, matrix)
        assert roundtrip(cmd).args[3] == pytest.approx(matrix)

    def test_stream_roundtrip(self):
        cmds = [
            make_command("glUseProgram", 3),
            make_command("glUniform1f", 0, 0.5),
            make_command("glDrawArrays", gl.GL_TRIANGLES, 0, 6),
        ]
        wire = serialize_stream(cmds)
        decoded = deserialize_stream(wire)
        assert [c.name for c in decoded] == [c.name for c in cmds]
        assert [c.args for c in decoded][0] == (3,)


class TestMalformedWire:
    def test_truncated_header(self):
        with pytest.raises(SerializationError):
            deserialize_command(b"\x42")

    def test_bad_magic(self):
        wire = bytearray(serialize_command(make_command("glFlush")))
        wire[0] ^= 0xFF
        with pytest.raises(SerializationError):
            deserialize_command(bytes(wire))

    def test_truncated_payload(self):
        wire = serialize_command(make_command("glUseProgram", 1))
        with pytest.raises(SerializationError):
            deserialize_command(wire[:-2])

    def test_unknown_opcode(self):
        import struct

        bad = struct.pack("<HHI", 0x4742, 60000, 0)
        with pytest.raises(SerializationError):
            deserialize_command(bad)

    def test_arity_mismatch_rejected_at_serialize(self):
        from repro.gles.commands import GLCommand

        with pytest.raises(SerializationError):
            serialize_command(GLCommand("glViewport", (1, 2)))

    def test_unresolved_deferred_pointer_rejected(self):
        cmd = make_command(
            "glVertexAttribPointer", 0, 3, gl.GL_FLOAT, False, 0,
            ClientArray(b"x" * 100),
        )
        with pytest.raises(SerializationError):
            serialize_command(cmd)


#: a serializable placeholder argument per wire kind
_PLACEHOLDER = {
    ParamType.INT: 0,
    ParamType.FLOAT: 0.0,
    ParamType.ENUM: 0,
    ParamType.BOOL: False,
    ParamType.STRING: "",
    ParamType.BLOB: b"",
    ParamType.DEFERRED_POINTER: b"",
    ParamType.INT_ARRAY: (),
    ParamType.FLOAT_ARRAY: (),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_command_opens_with_magic(name):
    """No serialized command can be read as a cache reference (CA FE) or
    a replay hit (CA FD): every one opens with MAGIC (42 47)."""
    args = [_PLACEHOLDER[p.kind] for p in COMMANDS[name].params]
    wire = serialize_command(make_command(name, *args))
    assert wire[:2] == struct.pack("<H", MAGIC) == b"\x42\x47"
    assert wire[:2] not in (REFERENCE_MARKER, REPLAY_HIT_MARKER)


class TestResolve:
    def test_plain_command_resolves_to_itself(self):
        cmd = make_command("glUseProgram", 1)
        assert CommandSerializer().resolve(cmd) == [cmd]

    def test_pointer_held_then_released_before_its_draw(self):
        ser = CommandSerializer()
        pointer = make_command(
            "glVertexAttribPointer", 0, 3, gl.GL_FLOAT, False, 0,
            ClientArray(bytes(range(120))),
        )
        draw = make_command("glDrawArrays", gl.GL_TRIANGLES, 0, 10)
        assert ser.resolve(pointer) == []
        released = ser.resolve(draw)
        assert [c.name for c in released] == [
            "glVertexAttribPointer", "glDrawArrays",
        ]
        assert released[0].args[5] == bytes(range(120))
        assert released[1] is draw
        # resolve encodes nothing
        assert ser.commands_serialized == 0
        assert ser.deferrals == 1

    def test_feed_encodes_what_resolve_returns(self):
        stream = [
            make_command("glVertexAttribPointer", 1, 2, gl.GL_FLOAT, False,
                         0, 64),
            make_command("glUseProgram", 2),
            make_command("glDrawArrays", gl.GL_TRIANGLES, 0, 3),
        ]
        resolver, feeder = CommandSerializer(), CommandSerializer()
        for cmd in stream:
            assert feeder.feed(cmd) == [
                serialize_command(c) for c in resolver.resolve(cmd)
            ]


class TestDeferredPointers:
    def test_pointer_held_until_draw(self):
        ser = CommandSerializer()
        pointer_cmd = make_command(
            "glVertexAttribPointer", 0, 3, gl.GL_FLOAT, False, 0,
            ClientArray(bytes(range(256)) * 10),
        )
        out = ser.feed(pointer_cmd)
        assert out == []
        assert ser.pending_deferred == 1
        draw = make_command("glDrawArrays", gl.GL_TRIANGLES, 0, 12)
        out = ser.feed(draw)
        # Pointer flushed first, then the draw — order preserved.
        assert len(out) == 2
        decoded0, _ = deserialize_command(out[0])
        decoded1, _ = deserialize_command(out[1])
        assert decoded0.name == "glVertexAttribPointer"
        assert decoded1.name == "glDrawArrays"
        assert ser.pending_deferred == 0

    def test_flushed_payload_sized_by_vertex_count(self):
        ser = CommandSerializer()
        data = bytes(1000)
        ser.feed(
            make_command(
                "glVertexAttribPointer", 0, 3, gl.GL_FLOAT, False, 0,
                ClientArray(data),
            )
        )
        out = ser.feed(make_command("glDrawArrays", gl.GL_TRIANGLES, 0, 10))
        decoded, _ = deserialize_command(out[0])
        # 10 vertices x 3 floats x 4 bytes = 120 bytes, not the full array.
        assert len(decoded.args[5]) == 120

    def test_stride_respected_in_flush(self):
        ser = CommandSerializer()
        ser.feed(
            make_command(
                "glVertexAttribPointer", 0, 2, gl.GL_FLOAT, False, 32,
                ClientArray(bytes(10_000)),
            )
        )
        out = ser.feed(make_command("glDrawArrays", gl.GL_POINTS, 0, 5))
        decoded, _ = deserialize_command(out[0])
        # stride 32 * 4 gaps + final element 8 bytes = 136
        assert len(decoded.args[5]) == 136

    def test_vbo_offset_pointer_not_deferred(self):
        ser = CommandSerializer()
        out = ser.feed(
            make_command(
                "glVertexAttribPointer", 0, 3, gl.GL_FLOAT, False, 0,
                ClientArray(bytes(100)),
            )
        )
        assert out == []
        # Integer pointers (VBO offsets) resolve to a 4-byte offset blob.
        ser2 = CommandSerializer()
        ser2.feed(
            make_command("glVertexAttribPointer", 1, 3, gl.GL_FLOAT, False,
                         0, 64)
        )
        out = ser2.feed(make_command("glDrawArrays", gl.GL_TRIANGLES, 0, 3))
        decoded, _ = deserialize_command(out[0])
        assert len(decoded.args[5]) == 4

    def test_latest_pointer_per_index_wins(self):
        buf = DeferredPointerBuffer()
        old = make_command(
            "glVertexAttribPointer", 0, 3, gl.GL_FLOAT, False, 0,
            ClientArray(b"A" * 400),
        )
        new = make_command(
            "glVertexAttribPointer", 0, 3, gl.GL_FLOAT, False, 0,
            ClientArray(b"B" * 400),
        )
        buf.hold(old)
        buf.hold(new)
        resolved = buf.flush_for_draw(4)
        assert len(resolved) == 1
        assert resolved[0].args[5] == b"B" * 48

    def test_multiple_attribs_flush_in_index_order(self):
        buf = DeferredPointerBuffer()
        for index in (2, 0, 1):
            buf.hold(
                make_command(
                    "glVertexAttribPointer", index, 2, gl.GL_FLOAT, False, 0,
                    ClientArray(bytes(100)),
                )
            )
        resolved = buf.flush_for_draw(3)
        assert [c.args[0] for c in resolved] == [0, 1, 2]

    def test_hold_rejects_other_commands(self):
        buf = DeferredPointerBuffer()
        with pytest.raises(SerializationError):
            buf.hold(make_command("glFlush"))

    def test_draw_elements_uses_max_index_metadata(self):
        ser = CommandSerializer()
        ser.feed(
            make_command(
                "glVertexAttribPointer", 0, 1, gl.GL_UNSIGNED_BYTE, False, 0,
                ClientArray(bytes(1000)),
            )
        )
        draw = make_command(
            "glDrawElements", gl.GL_TRIANGLES, 6, gl.GL_UNSIGNED_SHORT, None,
            metadata={"max_index": 99},
        )
        out = ser.feed(draw)
        decoded, _ = deserialize_command(out[0])
        assert len(decoded.args[5]) == 100  # vertices 0..99, 1 byte each

    def test_byte_accounting(self):
        ser = CommandSerializer()
        ser.feed(make_command("glUseProgram", 1))
        assert ser.commands_serialized == 1
        assert ser.bytes_serialized > 0


def _vbo_pointer(offset=0, index=0):
    return make_command(
        "glVertexAttribPointer", index, 3, gl.GL_FLOAT, False, 20, offset,
        metadata={"attrib": "position"},
    )


def _flush(buf, cmd, vertices=36):
    buf.hold(cmd)
    (resolved,) = buf.flush_for_draw(vertices)
    return resolved


class TestPointerMemo:
    """A VBO-offset pointer resolves once per command object; a client
    array pointer resolves on every draw."""

    def test_same_command_resolves_to_the_same_object(self):
        buf = DeferredPointerBuffer()
        cmd = _vbo_pointer(64)
        first = _flush(buf, cmd)
        again = _flush(buf, cmd, vertices=3)
        assert again is first
        fresh = _flush(DeferredPointerBuffer(), cmd)
        assert fresh is not first
        assert serialize_command(first) == serialize_command(fresh)
        assert first.args == (0, 3, gl.GL_FLOAT, False, 20,
                              struct.pack("<I", 64))
        assert first.metadata == cmd.metadata
        assert first.metadata is not cmd.metadata

    def test_equal_but_distinct_commands_get_their_own_entries(self):
        buf = DeferredPointerBuffer()
        a, b = _vbo_pointer(64), _vbo_pointer(64)
        assert a == b and a is not b
        ra, rb = _flush(buf, a), _flush(buf, b)
        assert ra is not rb and ra == rb
        assert len(buf._offsets) == 2
        assert _flush(buf, a) is ra and _flush(buf, b) is rb

    def test_client_array_pointer_reads_its_current_bytes(self):
        buf = DeferredPointerBuffer()
        array = ClientArray(b"A" * 400)
        cmd = make_command(
            "glVertexAttribPointer", 0, 3, gl.GL_FLOAT, False, 0, array,
        )
        assert _flush(buf, cmd, vertices=4).args[5] == b"A" * 48
        array.data = b"B" * 400
        assert _flush(buf, cmd, vertices=4).args[5] == b"B" * 48
        assert not buf._offsets

    def test_memo_is_bounded_oldest_first(self):
        buf = DeferredPointerBuffer()
        commands = [_vbo_pointer(i) for i in range(POINTER_MEMO_LIMIT + 10)]
        for cmd in commands:
            _flush(buf, cmd)
        assert len(buf._offsets) == POINTER_MEMO_LIMIT
        assert id(commands[9]) not in buf._offsets
        assert [entry[0] for entry in buf._offsets.values()] == commands[10:]
        # A dropped command resolves afresh, to the same bytes.
        assert _flush(buf, commands[0]).args[5] == struct.pack("<I", 0)
        assert len(buf._offsets) == POINTER_MEMO_LIMIT


@settings(max_examples=50, deadline=None)
@given(
    x=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    y=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    w=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    h=st.integers(min_value=-(2**31), max_value=2**31 - 1),
)
def test_property_int_roundtrip(x, y, w, h):
    decoded = roundtrip(make_command("glViewport", x, y, w, h))
    assert decoded.args == (x, y, w, h)


@settings(max_examples=50, deadline=None)
@given(payload=st.binary(max_size=4096))
def test_property_blob_roundtrip(payload):
    cmd = make_command(
        "glBufferData", gl.GL_ARRAY_BUFFER, len(payload), payload,
        gl.GL_STATIC_DRAW,
    )
    assert roundtrip(cmd).args[2] == payload


@settings(max_examples=50, deadline=None)
@given(text=st.text(max_size=500))
def test_property_string_roundtrip(text):
    cmd = make_command("glShaderSource", 1, text)
    assert roundtrip(cmd).args[1] == text
