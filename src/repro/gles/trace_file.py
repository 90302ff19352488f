"""Command-stream trace files (apitrace-style capture and replay).

Real GL interception stacks ship a trace tool: record an application's
command stream to a file, replay it later against any implementation.
This module provides the same facility over the simulated substrate —
useful for debugging workloads, building regression corpora, and feeding
recorded streams to the codec benchmarks.

Container format (little-endian):

    header:  magic "GBTR" | u16 version | u32 command count
    record:  f64 timestamp_ms | u32 wire length | wire bytes
             (wire bytes are the repro.gles.serialization format)
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, List, Tuple, Union

from repro.gles.commands import GLCommand
from repro.gles.context import GLContext
from repro.gles.serialization import (
    SerializationError,
    deserialize_command,
    serialize_command,
)

MAGIC = b"GBTR"
VERSION = 1
_HEADER = struct.Struct("<4sHI")
_RECORD = struct.Struct("<dI")


class TraceError(ValueError):
    """Malformed trace container."""


@dataclass(frozen=True)
class TraceFileRecord:
    """One timestamped command inside a trace container."""

    timestamp_ms: float
    command: GLCommand


class TraceWriter:
    """Streams commands into an in-memory buffer; ``save`` writes the file."""

    def __init__(self) -> None:
        self._records: List[Tuple[float, bytes]] = []

    def record(self, command: GLCommand, timestamp_ms: float = 0.0) -> None:
        if timestamp_ms < 0:
            raise ValueError(f"negative timestamp {timestamp_ms}")
        if self._records and timestamp_ms < self._records[-1][0]:
            raise ValueError(
                "timestamps must be non-decreasing "
                f"({timestamp_ms} after {self._records[-1][0]})"
            )
        self._records.append((timestamp_ms, serialize_command(command)))

    def record_sequence(
        self, commands: Iterable[GLCommand], timestamp_ms: float = 0.0
    ) -> None:
        for command in commands:
            self.record(command, timestamp_ms)

    def __len__(self) -> int:
        return len(self._records)

    def to_bytes(self) -> bytes:
        out = io.BytesIO()
        out.write(_HEADER.pack(MAGIC, VERSION, len(self._records)))
        for timestamp, wire in self._records:
            out.write(_RECORD.pack(timestamp, len(wire)))
            out.write(wire)
        return out.getvalue()

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_bytes(self.to_bytes())


class TraceReader:
    """Iterates a trace file's records."""

    def __init__(self, data: bytes):
        if len(data) < _HEADER.size:
            raise TraceError("truncated trace header")
        magic, version, count = _HEADER.unpack_from(data, 0)
        if magic != MAGIC:
            raise TraceError(f"bad magic {magic!r}")
        if version != VERSION:
            raise TraceError(f"unsupported trace version {version}")
        self._data = data
        self.count = count

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TraceReader":
        return cls(Path(path).read_bytes())

    def __iter__(self) -> Iterator[TraceFileRecord]:
        off = _HEADER.size
        data = self._data
        for _ in range(self.count):
            if off + _RECORD.size > len(data):
                raise TraceError("truncated record header")
            timestamp, length = _RECORD.unpack_from(data, off)
            off += _RECORD.size
            if off + length > len(data):
                raise TraceError("truncated record payload")
            try:
                command, end = deserialize_command(data, off)
            except SerializationError as exc:
                raise TraceError(f"corrupt command record: {exc}") from exc
            if end != off + length:
                raise TraceError("record length mismatch")
            off = end
            yield TraceFileRecord(timestamp_ms=timestamp, command=command)

    def commands(self) -> List[GLCommand]:
        return [record.command for record in self]

    def replay_onto(self, context: GLContext) -> GLContext:
        """Replay every command on a context; returns the context."""
        for record in self:
            context.execute(record.command)
        return context


class TracingInterceptor:
    """An interceptor that records everything it sees, then forwards.

    Plug it between the wrapper library and any downstream interceptor to
    capture a session's stream: ``build_wrapper_library(TracingInterceptor
    (downstream, clock))``.
    """

    def __init__(self, downstream=None, clock=None):
        self.writer = TraceWriter()
        self.downstream = downstream
        self.clock = clock or (lambda: 0.0)

    def __call__(self, command: GLCommand):
        self.writer.record(command, timestamp_ms=float(self.clock()))
        if self.downstream is not None:
            return self.downstream(command)
        return None
