"""Wire serialization for forwarded GL commands.

Two concerns from paper §IV-B live here:

* **The wire format.**  Basic types (ints, floats, enums, strings, sized
  blobs) are length-prefixed and byte-exact round-trippable, so the traffic
  volumes measured by the network substrate are real byte counts.

* **Deferred pointers.**  ``glVertexAttribPointer`` takes a client-side
  pointer whose extent is unknown until a later draw call reveals how many
  vertices are read.  :class:`CommandSerializer` therefore *holds back* such
  commands and flushes them, with the now-known payload, immediately before
  the draw that consumes them — the reordering the paper argues is safe as
  long as the pointer command still precedes the draw.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.gles import enums as gl
from repro.gles.commands import (
    COMMANDS,
    GLCommand,
    ParamType,
    command_spec,
)

MAGIC = 0x4742  # ASCII "GB"
_HEADER = struct.Struct("<HHI")    # magic, opcode, payload length

# Stable opcode assignment: alphabetical order of registered entry points.
OPCODES: Dict[str, int] = {
    name: idx for idx, name in enumerate(sorted(COMMANDS))
}
NAMES_BY_OPCODE: Dict[int, str] = {v: k for k, v in OPCODES.items()}


class SerializationError(ValueError):
    """Raised for malformed wire data or unserializable arguments."""


@dataclass
class ClientArray:
    """A client-side vertex array: the thing a deferred pointer points at.

    ``data`` is the full client buffer; how much of it must be shipped is
    only known at draw time.
    """

    data: bytes
    array_id: int = 0

    def __len__(self) -> int:
        return len(self.data)


def _pack_value(kind: ParamType, value: Any, out: bytearray) -> None:
    if kind == ParamType.INT:
        out += struct.pack("<i", int(value))
    elif kind == ParamType.ENUM:
        out += struct.pack("<I", int(value) & 0xFFFFFFFF)
    elif kind == ParamType.BOOL:
        out += struct.pack("<B", 1 if value else 0)
    elif kind == ParamType.FLOAT:
        out += struct.pack("<f", float(value))
    elif kind == ParamType.STRING:
        encoded = str(value).encode("utf-8")
        out += struct.pack("<I", len(encoded))
        out += encoded
    elif kind == ParamType.BLOB:
        data = b"" if value is None else bytes(value)
        out += struct.pack("<I", len(data))
        out += data
    elif kind == ParamType.INT_ARRAY:
        items = tuple(int(v) for v in (value or ()))
        out += struct.pack("<I", len(items))
        out += struct.pack(f"<{len(items)}i", *items)
    elif kind == ParamType.FLOAT_ARRAY:
        items = tuple(float(v) for v in (value or ()))
        out += struct.pack("<I", len(items))
        out += struct.pack(f"<{len(items)}f", *items)
    elif kind == ParamType.DEFERRED_POINTER:
        # By the time a deferred command is serialized its pointer argument
        # must have been resolved to concrete bytes.
        if not isinstance(value, (bytes, bytearray)):
            raise SerializationError(
                "deferred pointer was not resolved before serialization; "
                "route the command through CommandSerializer"
            )
        out += struct.pack("<I", len(value))
        out += bytes(value)
    else:  # pragma: no cover - registry is closed
        raise SerializationError(f"unhandled param kind {kind}")


def _unpack_value(kind: ParamType, buf: bytes, off: int) -> Tuple[Any, int]:
    if kind == ParamType.INT:
        return struct.unpack_from("<i", buf, off)[0], off + 4
    if kind == ParamType.ENUM:
        return struct.unpack_from("<I", buf, off)[0], off + 4
    if kind == ParamType.BOOL:
        return bool(buf[off]), off + 1
    if kind == ParamType.FLOAT:
        return struct.unpack_from("<f", buf, off)[0], off + 4
    if kind == ParamType.STRING:
        (n,) = struct.unpack_from("<I", buf, off)
        off += 4
        return buf[off:off + n].decode("utf-8"), off + n
    if kind in (ParamType.BLOB, ParamType.DEFERRED_POINTER):
        (n,) = struct.unpack_from("<I", buf, off)
        off += 4
        return bytes(buf[off:off + n]), off + n
    if kind == ParamType.INT_ARRAY:
        (n,) = struct.unpack_from("<I", buf, off)
        off += 4
        vals = struct.unpack_from(f"<{n}i", buf, off)
        return tuple(vals), off + 4 * n
    if kind == ParamType.FLOAT_ARRAY:
        (n,) = struct.unpack_from("<I", buf, off)
        off += 4
        vals = struct.unpack_from(f"<{n}f", buf, off)
        return tuple(vals), off + 4 * n
    raise SerializationError(f"unhandled param kind {kind}")  # pragma: no cover


def serialize_command(cmd: GLCommand) -> bytes:
    """Serialize one command to its wire representation."""
    spec = command_spec(cmd.name)
    if len(cmd.args) != spec.arity:
        raise SerializationError(
            f"{cmd.name}: expected {spec.arity} args, got {len(cmd.args)}"
        )
    payload = bytearray()
    for param, value in zip(spec.params, cmd.args):
        try:
            _pack_value(param.kind, value, payload)
        except (struct.error, TypeError, ValueError) as exc:
            raise SerializationError(
                f"{cmd.name}.{param.name}: cannot serialize {value!r} "
                f"as {param.kind.value}"
            ) from exc
    header = _HEADER.pack(MAGIC, OPCODES[cmd.name], len(payload))
    return header + bytes(payload)


def deserialize_command(data: bytes, offset: int = 0) -> Tuple[GLCommand, int]:
    """Decode one command; returns ``(command, next_offset)``."""
    if len(data) - offset < _HEADER.size:
        raise SerializationError("truncated command header")
    magic, opcode, length = _HEADER.unpack_from(data, offset)
    if magic != MAGIC:
        raise SerializationError(f"bad magic 0x{magic:04X}")
    name = NAMES_BY_OPCODE.get(opcode)
    if name is None:
        raise SerializationError(f"unknown opcode {opcode}")
    spec = COMMANDS[name]
    body_start = offset + _HEADER.size
    body_end = body_start + length
    if body_end > len(data):
        raise SerializationError(f"truncated payload for {name}")
    off = body_start
    args: List[Any] = []
    for param in spec.params:
        value, off = _unpack_value(param.kind, data, off)
        args.append(value)
    if off != body_end:
        raise SerializationError(
            f"{name}: payload length mismatch ({off - body_start} != {length})"
        )
    return GLCommand(name=name, args=tuple(args)), body_end


def serialize_stream(commands: List[GLCommand]) -> bytes:
    return b"".join(serialize_command(c) for c in commands)


def deserialize_stream(data: bytes) -> List[GLCommand]:
    out: List[GLCommand] = []
    off = 0
    while off < len(data):
        cmd, off = deserialize_command(data, off)
        out.append(cmd)
    return out


#: resolved VBO-offset pointer commands one buffer remembers (oldest
#: dropped first)
POINTER_MEMO_LIMIT = 256


@dataclass
class DeferredPointerBuffer:
    """Holds back vertex-pointer commands until a draw reveals their extent.

    A pointer that is a VBO offset (an ``int``) ships as the offset
    itself, whatever the draw reads, so its resolved command depends on
    the command object alone: the buffer builds it once and hands out
    the same object on every later draw.  The memo is keyed on the
    command's ``id`` and each entry keeps the command alive, so no other
    object can take that ``id`` while the entry lives.  Any other
    pointer is resolved on every draw: a :class:`ClientArray` is mutable,
    and its bytes may change between draws, which is why pointers are
    deferred at all.
    """

    pending: Dict[int, GLCommand] = field(default_factory=dict)
    #: ``id(command) -> (command, resolved command)`` for VBO offsets
    _offsets: Dict[int, Tuple[GLCommand, GLCommand]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def hold(self, cmd: GLCommand) -> None:
        if cmd.name != "glVertexAttribPointer":
            raise SerializationError(f"cannot defer {cmd.name}")
        index = cmd.args[0]
        self.pending[index] = cmd

    def flush_for_draw(self, vertex_count: int) -> List[GLCommand]:
        """Resolve every held pointer for a draw of ``vertex_count`` vertices.

        The resolved commands are returned in attrib-index order so replay is
        deterministic; the paper's observation is that any order is correct
        as long as they precede the draw.
        """
        resolved: List[GLCommand] = []
        offsets = self._offsets
        for index in sorted(self.pending):
            cmd = self.pending[index]
            entry = offsets.get(id(cmd))
            if entry is not None:
                resolved.append(entry[1])
                continue
            _, size, dtype, normalized, stride, pointer = cmd.args
            element = size * gl.TYPE_SIZES.get(dtype, 4)
            step = stride if stride > 0 else element
            needed = 0
            if vertex_count > 0:
                needed = step * (vertex_count - 1) + element
            if isinstance(pointer, ClientArray):
                data = pointer.data[:needed]
            elif isinstance(pointer, (bytes, bytearray)):
                data = bytes(pointer[:needed])
            elif isinstance(pointer, int):
                # A VBO offset: nothing to ship, the data lives server-side.
                data = struct.pack("<I", pointer)
            else:
                raise SerializationError(
                    f"unsupported pointer payload {type(pointer).__name__}"
                )
            out = GLCommand(
                name=cmd.name,
                args=(cmd.args[0], size, dtype, normalized, stride, data),
                metadata=dict(cmd.metadata),
            )
            if isinstance(pointer, int):
                if len(offsets) >= POINTER_MEMO_LIMIT:
                    del offsets[next(iter(offsets))]
                offsets[id(cmd)] = (cmd, out)
            resolved.append(out)
        self.pending.clear()
        return resolved


class CommandSerializer:
    """Stateful serializer implementing the §IV-B forwarding pipeline.

    ``resolve`` applies the deferred-pointer hold and flush without
    encoding anything; ``feed`` encodes what ``resolve`` returns.  Either
    way a deferred-pointer command produces nothing until the next draw
    call flushes it.
    """

    def __init__(self) -> None:
        self._deferred = DeferredPointerBuffer()
        self.commands_serialized = 0
        self.bytes_serialized = 0
        self.deferrals = 0

    def resolve(self, cmd: GLCommand) -> List[GLCommand]:
        """The commands ``cmd`` releases onto the wire, in order.

        A client-side vertex pointer is held back (an empty list); a draw
        releases every held pointer, resolved to the bytes it reads, and
        then itself; any other command releases only itself.
        """
        name = cmd.name
        if name == "glVertexAttribPointer" and not isinstance(
            cmd.args[5], (bytes, bytearray)
        ):
            self._deferred.hold(cmd)
            self.deferrals += 1
            return []
        if command_spec(name).is_draw and self._deferred.pending:
            flushed = self._deferred.flush_for_draw(_draw_vertex_count(cmd))
            flushed.append(cmd)
            return flushed
        return [cmd]

    def feed(self, cmd: GLCommand) -> List[bytes]:
        """Wire bytes for every command ``resolve(cmd)`` releases."""
        return [self._emit(resolved) for resolved in self.resolve(cmd)]

    def _emit(self, cmd: GLCommand) -> bytes:
        wire = serialize_command(cmd)
        self.commands_serialized += 1
        self.bytes_serialized += len(wire)
        return wire

    @property
    def pending_deferred(self) -> int:
        return len(self._deferred.pending)


def _draw_vertex_count(cmd: GLCommand) -> int:
    if cmd.name == "glDrawArrays":
        first, count = cmd.args[1], cmd.args[2]
        return first + count
    if cmd.name == "glDrawElements":
        # Without inspecting index values we conservatively assume the draw
        # touches `count` vertices; workloads annotate the true maximum.
        return cmd.metadata.get("max_index", cmd.args[1] - 1) + 1
    return 0
