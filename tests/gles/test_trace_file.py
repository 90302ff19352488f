"""Trace capture and replay."""

import pytest

from repro.gles import enums as gl
from repro.gles.commands import make_command
from repro.gles.context import GLContext
from repro.gles.trace_file import (
    TraceError,
    TraceFileRecord,
    TraceReader,
    TraceWriter,
    TracingInterceptor,
)


def sample_commands():
    return [
        make_command("glViewport", 0, 0, 640, 480),
        make_command("glClearColor", 0.3, 0.3, 0.3, 1.0),
        make_command("glEnable", gl.GL_DEPTH_TEST),
        make_command("glBindTexture", gl.GL_TEXTURE_2D, 0),
    ]


class TestRoundTrip:
    def test_commands_preserved(self):
        writer = TraceWriter()
        for i, cmd in enumerate(sample_commands()):
            writer.record(cmd, timestamp_ms=float(i * 16))
        reader = TraceReader(writer.to_bytes())
        records = list(reader)
        assert all(isinstance(r, TraceFileRecord) for r in records)
        assert [r.command.name for r in records] == [
            c.name for c in sample_commands()
        ]
        assert [r.timestamp_ms for r in records] == [0.0, 16.0, 32.0, 48.0]

    def test_empty_trace(self):
        reader = TraceReader(TraceWriter().to_bytes())
        assert reader.count == 0
        assert list(reader) == []

    def test_file_roundtrip(self, tmp_path):
        writer = TraceWriter()
        writer.record_sequence(sample_commands(), timestamp_ms=5.0)
        path = tmp_path / "session.gbtrace"
        writer.save(path)
        reader = TraceReader.load(path)
        assert reader.count == 4

    def test_replay_reproduces_state(self):
        writer = TraceWriter()
        writer.record_sequence(sample_commands())
        direct = GLContext("direct")
        direct.execute_sequence(sample_commands())
        replayed = TraceReader(writer.to_bytes()).replay_onto(
            GLContext("replayed")
        )
        assert replayed.state_digest() == direct.state_digest()


class TestValidation:
    def test_timestamps_must_not_go_backwards(self):
        writer = TraceWriter()
        writer.record(make_command("glFlush"), timestamp_ms=10.0)
        with pytest.raises(ValueError):
            writer.record(make_command("glFlush"), timestamp_ms=5.0)

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            TraceWriter().record(make_command("glFlush"), timestamp_ms=-1.0)

    def test_bad_magic(self):
        with pytest.raises(TraceError):
            TraceReader(b"NOPE" + bytes(20))

    def test_truncated_header(self):
        with pytest.raises(TraceError):
            TraceReader(b"GB")

    def test_truncated_payload(self):
        writer = TraceWriter()
        writer.record_sequence(sample_commands())
        blob = writer.to_bytes()
        reader = TraceReader(blob[:-3])
        with pytest.raises(TraceError):
            list(reader)

    def test_wrong_version(self):
        import struct

        blob = struct.pack("<4sHI", b"GBTR", 99, 0)
        with pytest.raises(TraceError):
            TraceReader(blob)


class TestTracingInterceptor:
    def test_records_and_forwards(self):
        seen = []
        interceptor = TracingInterceptor(
            downstream=lambda c: seen.append(c) or "fwd",
            clock=lambda: 42.0,
        )
        result = interceptor(make_command("glFlush"))
        assert result == "fwd"
        assert len(seen) == 1
        assert len(interceptor.writer) == 1

    def test_wrapper_integration(self):
        """Capture an intercepted app's stream through the real wrapper."""
        from repro.linker.wrapper import build_wrapper_library

        interceptor = TracingInterceptor()
        wrapper = build_wrapper_library(interceptor)
        wrapper.lookup("glViewport")(0, 0, 100, 100)
        wrapper.lookup("glEnable")(gl.GL_BLEND)
        reader = TraceReader(interceptor.writer.to_bytes())
        names = [r.command.name for r in reader]
        assert names == ["glViewport", "glEnable"]


def stateful_commands():
    """A sequence whose replay must carry GL state, including BLOB
    uploads — the payloads the replay store keeps structural."""
    return [
        make_command("glUseProgram", 3),
        make_command(
            "glBufferData", gl.GL_ARRAY_BUFFER, 8,
            b"\x00\x01\x02\x03\x04\x05\x06\x07", gl.GL_STATIC_DRAW,
        ),
        make_command(
            "glTexImage2D", gl.GL_TEXTURE_2D, 0, gl.GL_RGBA, 2, 2, 0,
            gl.GL_RGBA, gl.GL_UNSIGNED_BYTE, b"\xff" * 16,
        ),
        make_command("glUniform1f", 7, 0.125),
        make_command(
            "glUniformMatrix4fv", 4, 1, False,
            tuple(float(i) for i in range(16)),
        ),
        make_command("glDrawArrays", gl.GL_TRIANGLES, 0, 36),
    ]


class TestStatefulRoundTrip:
    def test_empty_frame_roundtrips(self):
        """A frame with zero commands between boundaries must survive
        capture/replay without phantom records or state drift."""
        writer = TraceWriter()
        writer.record_sequence([], timestamp_ms=0.0)
        reader = TraceReader(writer.to_bytes())
        assert reader.count == 0
        replayed = reader.replay_onto(GLContext("replayed"))
        assert replayed.state_digest() == GLContext("direct").state_digest()

    def test_state_carrying_sequence_roundtrips(self):
        writer = TraceWriter()
        writer.record_sequence(stateful_commands())
        reader = TraceReader(writer.to_bytes())
        assert reader.count == len(stateful_commands())
        direct = GLContext("direct")
        direct.execute_sequence(stateful_commands())
        replayed = reader.replay_onto(GLContext("replayed"))
        assert replayed.state_digest() == direct.state_digest()

    def test_blob_payload_bytes_survive_serialisation(self):
        writer = TraceWriter()
        writer.record_sequence(stateful_commands())
        records = list(TraceReader(writer.to_bytes()))
        blobs = [
            arg
            for record in records
            for arg in record.command.args
            if isinstance(arg, bytes)
        ]
        assert b"\x00\x01\x02\x03\x04\x05\x06\x07" in blobs
        assert b"\xff" * 16 in blobs

    def test_mixed_empty_and_full_frames(self, tmp_path):
        writer = TraceWriter()
        writer.record_sequence([], timestamp_ms=0.0)
        writer.record_sequence(stateful_commands(), timestamp_ms=16.0)
        writer.record_sequence([], timestamp_ms=32.0)
        path = tmp_path / "mixed.gbtrace"
        writer.save(path)
        reader = TraceReader.load(path)
        assert reader.count == len(stateful_commands())
        direct = GLContext("direct")
        direct.execute_sequence(stateful_commands())
        assert (
            reader.replay_onto(GLContext("replayed")).state_digest()
            == direct.state_digest()
        )
