"""A real LZ77 byte compressor in the LZ4 style.

The paper uses LZ4 [23] because it is light on CPU while reaching ~70%
reduction on graphics command streams.  This is a from-scratch pure-Python
implementation of the same family: greedy hash-chain match finding, a
token-based block format (literal-run length + match length nibbles, LZ4's
15/255 extension bytes, little-endian 16-bit offsets), and a linear-time
decompressor.  ``decompress(compress(x)) == x`` for all byte strings, which
the property tests exercise.

Block format (per sequence):
    token byte: (literal_len_nibble << 4) | match_len_nibble
    [literal length extension bytes]  while nibble/extension == 15/255
    literal bytes
    2-byte LE match offset (1..65535)          -- absent in the final run
    [match length extension bytes]             -- match len = nibble + 4

Match finding.  Every position that has four bytes after it is indexed
under a 16-bit hash of those bytes, in position order.  At each position
the parser visits, it tries the ``max_chain`` most recent earlier
positions with the same hash, nearest first, and keeps the longest match
(the nearest on a tie).  Because every position is indexed exactly once,
the hash chains do not depend on the parse: ``_hash_chains`` builds them
for the whole input at once with numpy, and the parser jumps straight
from one position that has a candidate to the next.  The chains stay
numpy arrays, read through memoryviews: a parse visits only a few
dozen of their entries, so turning every one into a Python int would
cost more than the parse.  The output is the same, byte for byte, as
indexing positions one at a time while parsing.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Tuple

import numpy as np

MIN_MATCH = 4
MAX_OFFSET = 0xFFFF
_HASH_LEN = 4
#: bytes compared per step when extending a match; doubles each step
_EXTEND_WIDTH = 32


def _hash_chains(data: bytes) -> Tuple[memoryview, memoryview]:
    """Index every position ``p <= len(data) - 4`` by a 16-bit hash of
    ``data[p:p + 4]``, an FNV-ish mix that is cheap and good enough for
    chain bucketing.

    Returns ``(prev, starts)``: ``prev[p]`` is the nearest earlier
    position with the same hash (-1 if none), and ``starts`` lists, in
    order, the positions that have one, the only ones where a match can
    begin.  Both are memoryviews of numpy arrays: the parser reads only
    the few entries it visits, so none is turned into a Python list.
    """
    m = len(data) - _HASH_LEN + 1
    b = np.frombuffer(data, dtype=np.uint8).astype(np.uint16)
    # (b0 * 2654435761 ^ b1 * 40503 ^ b2 * 31 ^ b3) & 0xFFFF, with the
    # first multiplier cut to its low 16 bits: uint16 arithmetic wraps
    # modulo 2**16, so the low 16 bits of every term are what they were.
    h = b[:m] * 0x79B1
    h ^= b[1:m + 1] * 40503
    h ^= b[2:m + 2] * 31
    h ^= b[3:]
    # A stable sort groups equal hashes with positions ascending, so each
    # position's predecessor in the sorted order is its chain link.
    order = h.argsort(kind="stable")
    hs = h[order]
    prev = np.empty(m, dtype=np.intp)
    prev[order[0]] = -1
    prev[order[1:]] = np.where(hs[1:] == hs[:-1], order[:-1], -1)
    return memoryview(prev), memoryview(np.flatnonzero(prev >= 0))


def _match_length(data: bytes, a: int, b: int, limit: int) -> int:
    """Length of the common prefix of ``data[a:]`` and ``data[b:]``,
    at most ``limit``."""
    length = 0
    width = _EXTEND_WIDTH
    while length < limit:
        w = min(width, limit - length)
        diff = int.from_bytes(data[a + length:a + length + w], "big") ^ (
            int.from_bytes(data[b + length:b + length + w], "big")
        )
        if diff:
            # The highest set bit lies in the first differing byte.
            return length + w - 1 - ((diff.bit_length() - 1) >> 3)
        length += w
        width <<= 1
    return limit


def _append_length(out: bytearray, remainder: int) -> None:
    """Append LZ4's extension bytes for a length whose nibble is 15:
    255 while at least 255 of ``remainder`` is left, then the rest."""
    if remainder >= 255:
        out += b"\xff" * (remainder // 255)
        remainder %= 255
    out.append(remainder)


def compress(data: bytes, max_chain: int = 16) -> bytes:
    """Compress ``data``; always decompressible by :func:`decompress`.

    ``max_chain`` bounds the match-finder effort (LZ4's speed/ratio knob):
    how many earlier same-hash positions are tried at each position.
    0 tries them all.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"expected bytes, got {type(data).__name__}")
    if max_chain < 0:
        raise ValueError(f"max_chain must be >= 0, got {max_chain}")
    data = bytes(data)
    n = len(data)
    out = bytearray()
    literal_start = 0
    if n >= _HASH_LEN:
        prev, starts = _hash_chains(data)
        n_starts = len(starts)
        tries = max_chain or n
        i = 0
        while i < n_starts:
            pos = starts[i]
            limit = n - pos
            best_len = 0
            best_off = 0
            candidate = prev[pos]
            for _ in range(tries):
                offset = pos - candidate
                if offset > MAX_OFFSET:
                    break  # the rest of the chain lies further back
                # Only a candidate that agrees at index best_len can beat
                # the best match so far.
                if data[candidate + best_len] == data[pos + best_len]:
                    length = _match_length(data, candidate, pos, limit)
                    if length > best_len:
                        best_len = length
                        best_off = offset
                        if best_len == limit:
                            break
                candidate = prev[candidate]
                if candidate < 0:
                    break
            if best_len < MIN_MATCH:
                i += 1
                continue
            # One sequence: token, literal-length extension, literals,
            # offset, match-length extension.
            lit_len = pos - literal_start
            match_code = best_len - MIN_MATCH
            if lit_len < 15:
                if match_code < 15:
                    out.append((lit_len << 4) | match_code)
                else:
                    out.append((lit_len << 4) | 15)
            else:
                out.append(0xF0 | match_code if match_code < 15 else 0xFF)
                _append_length(out, lit_len - 15)
            out += data[literal_start:pos]
            out.append(best_off & 0xFF)
            out.append(best_off >> 8)
            if match_code >= 15:
                _append_length(out, match_code - 15)
            literal_start = pos + best_len
            i = bisect_left(starts, literal_start, i + 1)
    lit_len = n - literal_start
    if lit_len or n == 0:
        if lit_len < 15:
            out.append(lit_len << 4)
        else:
            out.append(0xF0)
            _append_length(out, lit_len - 15)
        out += data[literal_start:]
    return bytes(out)


def _read_length(data: bytes, pos: int, value: int) -> Tuple[int, int]:
    """Inverse of :func:`_append_length`: adds the extension bytes at
    ``pos`` to a nibble of 15; returns ``(length, next position)``."""
    if value == 15:
        while True:
            if pos >= len(data):
                raise ValueError("corrupt stream: truncated length")
            ext = data[pos]
            pos += 1
            value += ext
            if ext != 255:
                break
    return value, pos


def decompress(blob: bytes) -> bytes:
    """Inverse of :func:`compress`.

    Raises ``ValueError`` on a stream :func:`compress` cannot have made:
    a zero offset, an offset before the start of the output, or a
    sequence cut short.
    """
    data = bytes(blob)
    out = bytearray()
    pos = 0
    n = len(data)
    while pos < n:
        token = data[pos]
        lit_len, pos = _read_length(data, pos + 1, token >> 4)
        if pos + lit_len > n:
            raise ValueError("corrupt stream: literal run past the end")
        out += data[pos:pos + lit_len]
        pos += lit_len
        if pos >= n:
            break  # final literal-only sequence
        if pos + 2 > n:
            raise ValueError("corrupt stream: truncated offset")
        offset = data[pos] | (data[pos + 1] << 8)
        if offset == 0:
            raise ValueError("corrupt stream: zero match offset")
        match_len, pos = _read_length(data, pos + 2, token & 0x0F)
        match_len += MIN_MATCH
        start = len(out) - offset
        if start < 0:
            raise ValueError("corrupt stream: offset before start")
        if offset >= match_len:
            out += out[start:start + match_len]
        else:
            # An overlapping copy repeats the last ``offset`` bytes.
            reps = -(-match_len // offset)
            out += (out[start:] * reps)[:match_len]
    return bytes(out)


def compression_ratio(data: bytes, max_chain: int = 16) -> float:
    """Compressed size as a fraction of the original (lower is better)."""
    if not data:
        return 1.0
    return len(compress(data, max_chain=max_chain)) / len(data)
