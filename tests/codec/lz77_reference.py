"""Test oracle for :func:`repro.codec.lz77.compress`.

The first, one-position-at-a-time implementation of the compressor.  The
production match finder must produce the same bytes for every input and
``max_chain``; ``test_lz77.py`` checks that against this copy.  It takes
only the two format constants from the module under test: the parser,
the hash and the length encoder are its own, so a change to the
production emitter cannot move both sides together.
"""

from __future__ import annotations

from typing import Dict, List

from repro.codec.lz77 import MAX_OFFSET, MIN_MATCH

_HASH_LEN = 4


def _write_length(value: int, nibble_max: int, out: bytearray) -> int:
    """Returns the nibble; appends LZ4's extension bytes for the
    remainder: 255 while at least 255 is left, then the rest."""
    if value < nibble_max:
        return value
    remainder = value - nibble_max
    while remainder >= 255:
        out.append(255)
        remainder -= 255
    out.append(remainder)
    return nibble_max


def _hash4(data: bytes, pos: int) -> int:
    # FNV-ish mix of 4 bytes; cheap and good enough for chain bucketing.
    return (
        (data[pos] * 2654435761)
        ^ (data[pos + 1] * 40503)
        ^ (data[pos + 2] * 31)
        ^ data[pos + 3]
    ) & 0xFFFF


def reference_compress(data: bytes, max_chain: int = 16) -> bytes:
    """The straightforward greedy hash-chain parser: index each position
    when the parser reaches it, extend every match byte by byte."""
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"expected bytes, got {type(data).__name__}")
    data = bytes(data)
    n = len(data)
    out = bytearray()
    chains: Dict[int, List[int]] = {}
    pos = 0
    literal_start = 0

    def emit_sequence(lit_end: int, match_off: int, match_len: int) -> None:
        literals = data[literal_start:lit_end]
        ext = bytearray()
        lit_nibble = _write_length(len(literals), 15, ext)
        if match_len >= 0:
            match_ext = bytearray()
            match_nibble = _write_length(match_len - MIN_MATCH, 15, match_ext)
            out.append((lit_nibble << 4) | match_nibble)
            out.extend(ext)
            out.extend(literals)
            out.append(match_off & 0xFF)
            out.append((match_off >> 8) & 0xFF)
            out.extend(match_ext)
        else:
            out.append(lit_nibble << 4)
            out.extend(ext)
            out.extend(literals)

    while pos < n:
        best_len = 0
        best_off = 0
        if pos + _HASH_LEN <= n:
            bucket = chains.setdefault(_hash4(data, pos), [])
            for candidate in reversed(bucket[-max_chain:]):
                offset = pos - candidate
                if offset > MAX_OFFSET:
                    continue
                # Extend the match.
                length = 0
                limit = n - pos
                while (
                    length < limit
                    and data[candidate + length] == data[pos + length]
                ):
                    length += 1
                if length > best_len:
                    best_len = length
                    best_off = offset
            bucket.append(pos)
        if best_len >= MIN_MATCH:
            emit_sequence(pos, best_off, best_len)
            # Index positions inside the match so later data can reference it.
            end = pos + best_len
            for p in range(pos + 1, min(end, n - _HASH_LEN + 1)):
                chains.setdefault(_hash4(data, p), []).append(p)
            pos = end
            literal_start = pos
        else:
            pos += 1
    if literal_start < n or n == 0:
        emit_sequence(n, 0, -1)
    return bytes(out)
