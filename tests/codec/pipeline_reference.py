"""Test oracle for the cache stage of :class:`repro.codec.pipeline.CommandPipeline`.

The serialize-everything egress: every resolved command is serialized,
then looked up in an LRU keyed by the command itself.  A hit sends
``CA FE`` + the 8-byte blake2b digest of the key *as the receiver holds
it* (the first-inserted of a set of equal keys), a miss sends the full
wire bytes.  The production pipeline serializes only on a miss and must
produce the same payload for every stream and capacity; the
``cache_lockstep`` fuzz property in ``repro.check.fuzz`` checks that
against this copy.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Iterable

from repro.gles.commands import GLCommand
from repro.gles.serialization import CommandSerializer, serialize_command


class SerializeEverythingPipeline:
    """Uncompressed egress with the command cache, one frame at a time."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.serializer = CommandSerializer()
        #: key -> the key object first inserted under it
        self._held: "OrderedDict[tuple, tuple]" = OrderedDict()

    def process_frame(self, commands: Iterable[GLCommand]) -> bytes:
        batch = bytearray()
        for cmd in commands:
            for resolved in self.serializer.resolve(cmd):
                wire = serialize_command(resolved)
                key = resolved.key()
                held = self._held.get(key)
                if held is None:
                    self._held[key] = key
                    if len(self._held) > self.capacity:
                        self._held.popitem(last=False)
                    batch += wire
                else:
                    self._held.move_to_end(key)
                    batch += b"\xCA\xFE" + hashlib.blake2b(
                        repr(held).encode(), digest_size=8
                    ).digest()
        return bytes(batch)
