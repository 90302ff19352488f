"""LZ77 compressor: round-trip correctness, compression behaviour, and
byte-identity with the reference parser in ``lz77_reference.py``."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.codec.lz77 import MAX_OFFSET, compress, compression_ratio, decompress
from tests.codec.lz77_reference import _hash4, reference_compress

CHAINS = (0, 1, 2, 8, 16, 64)


class TestRoundTrip:
    def test_empty(self):
        assert decompress(compress(b"")) == b""

    def test_single_byte(self):
        assert decompress(compress(b"a")) == b"a"

    def test_short_literal_only(self):
        data = b"abc"
        assert decompress(compress(data)) == data

    def test_repeated_pattern(self):
        data = b"abcd" * 1000
        assert decompress(compress(data)) == data

    def test_all_same_byte(self):
        data = b"\x00" * 5000
        assert decompress(compress(data)) == data

    def test_overlapping_match(self):
        # 'aaaa...' forces matches whose source overlaps the copy target.
        data = b"a" + b"a" * 300 + b"b"
        assert decompress(compress(data)) == data

    def test_long_literal_runs(self):
        data = bytes(range(256)) * 3  # little redundancy at window start
        assert decompress(compress(data)) == data

    def test_binary_gl_stream(self):
        from repro.gles.commands import make_command
        from repro.gles.serialization import serialize_stream

        cmds = [
            make_command("glUniform1f", i % 4, float(i % 7)) for i in range(200)
        ]
        wire = serialize_stream(cmds)
        assert decompress(compress(wire)) == wire

    def test_max_chain_zero_still_correct(self):
        data = b"hello world " * 50
        assert decompress(compress(data, max_chain=0)) == data


class TestCompressionQuality:
    def test_redundant_data_compresses_well(self):
        data = b"the quick brown fox " * 200
        ratio = compression_ratio(data)
        assert ratio < 0.1

    def test_command_stream_reaches_papers_ballpark(self):
        """LZ4 on command streams: ~70% reduction (paper §V-A)."""
        from repro.gles.commands import make_command
        from repro.gles.serialization import serialize_stream

        # Consecutive frames repeat near-identical sequences.
        frames = []
        for frame in range(30):
            for slot in range(10):
                frames.append(make_command("glBindTexture", 0x0DE1, slot + 4))
                frames.append(
                    make_command("glUniform1f", 0, float(frame % 3))
                )
                frames.append(make_command("glDrawArrays", 4, 0, 36))
        wire = serialize_stream(frames)
        assert compression_ratio(wire) < 0.35

    def test_random_data_does_not_explode(self):
        import random

        rng = random.Random(1)
        data = bytes(rng.getrandbits(8) for _ in range(4000))
        # Worst case bounded: token + extension overhead is small.
        assert len(compress(data)) < len(data) * 1.1

    def test_higher_chain_never_worse_ratio(self):
        data = (b"pattern-one " * 40 + b"pattern-two " * 40) * 5
        weak = len(compress(data, max_chain=1))
        strong = len(compress(data, max_chain=64))
        assert strong <= weak

    def test_ratio_of_empty_is_one(self):
        assert compression_ratio(b"") == 1.0


class TestErrors:
    def test_type_error_on_non_bytes(self):
        with pytest.raises(TypeError):
            compress("string")  # type: ignore[arg-type]

    def test_negative_max_chain_rejected(self):
        with pytest.raises(ValueError):
            compress(b"abcdabcd", max_chain=-1)

    def test_literal_run_past_end(self):
        # Token promises 5 literals, the stream carries 2.
        with pytest.raises(ValueError, match="literal run"):
            decompress(bytes([0x50]) + b"ab")

    def test_truncated_offset(self):
        with pytest.raises(ValueError, match="truncated offset"):
            decompress(bytes([0x10]) + b"a" + b"\x01")

    def test_truncated_length(self):
        with pytest.raises(ValueError, match="truncated length"):
            decompress(bytes([0xF0]) + b"\xff")

    def test_corrupt_zero_offset(self):
        blob = bytearray(compress(b"abcdabcdabcdabcd" * 10))
        # Find a match offset and zero it out.
        for i in range(len(blob) - 1):
            if blob[i] != 0 or blob[i + 1] != 0:
                continue
        corrupted = bytes([0x04]) + b"abcd" + bytes([0, 0]) + bytes([0])
        with pytest.raises(ValueError):
            decompress(corrupted)


class TestSeededRoundTrip:
    """Deterministic counterpart of the hypothesis properties below —
    the same seeded generator family ``python -m repro fuzz`` uses, so a
    failure here reproduces byte-for-byte on every machine."""

    def test_seeded_random_payloads(self):
        import random

        rng = random.Random(20260806)
        for _ in range(60):
            n = rng.randint(0, 2000)
            data = bytes(rng.randrange(256) for _ in range(n))
            assert decompress(compress(data)) == data

    def test_seeded_repetitive_payloads(self):
        import random

        rng = random.Random(77)
        for _ in range(40):
            motif = bytes(rng.randrange(256)
                          for _ in range(rng.randint(1, 12)))
            data = motif * rng.randint(1, 400)
            assert decompress(compress(data)) == data

    def test_degenerate_sizes(self):
        for data in (b"", b"\x00", b"\xff", b"ab", b"\x00\x00"):
            assert decompress(compress(data)) == data


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=2000))
def test_property_roundtrip(data):
    assert decompress(compress(data)) == data


@settings(max_examples=50, deadline=None)
@given(
    chunk=st.binary(min_size=1, max_size=20),
    repeats=st.integers(min_value=1, max_value=200),
)
def test_property_repetition_roundtrip(chunk, repeats):
    data = chunk * repeats
    assert decompress(compress(data)) == data


@settings(max_examples=50, deadline=None)
@given(data=st.binary(min_size=200, max_size=2000), chain=st.sampled_from([1, 4, 16, 64]))
def test_property_chain_parameter_roundtrip(data, chain):
    assert decompress(compress(data, max_chain=chain)) == data


@settings(max_examples=100, deadline=None)
@given(
    data=st.binary(min_size=1, max_size=600),
    cut=st.integers(min_value=0, max_value=10_000),
    flip=st.integers(min_value=0, max_value=10_000),
    bit=st.integers(min_value=0, max_value=7),
)
def test_property_damaged_stream_raises_only_value_error(data, cut, flip, bit):
    """A truncated or bit-flipped stream decodes to some bytes or raises
    ``ValueError``, never another exception."""
    blob = bytearray(compress(data))
    blob[flip % len(blob)] ^= 1 << bit
    for damaged in (bytes(blob), bytes(blob[:cut % len(blob)])):
        try:
            decompress(damaged)
        except ValueError:
            pass


# ---------------------------------------------------------------------------
# byte-identity with the reference parser


def _seeded_corpus():
    """Random, small-alphabet, periodic and cache-reference-like inputs."""
    rng = random.Random(20261016)
    for k in range(48):
        n = rng.randint(0, 3000)
        kind = k % 4
        if kind == 0:
            yield bytes(rng.randrange(256) for _ in range(n))
        elif kind == 1:
            yield bytes(rng.randrange(4) for _ in range(n))
        elif kind == 2:
            motif = bytes(rng.randrange(256) for _ in range(rng.randint(1, 24)))
            yield motif * (n // len(motif) + 1)
        else:
            refs = [b"\xca\xfe" + bytes(rng.randrange(256) for _ in range(8))
                    for _ in range(12)]
            yield b"".join(rng.choice(refs) for _ in range(n // 10))


def _colliding_grams():
    """Two different 4-byte strings with the same 16-bit chain hash."""
    rng = random.Random(5)
    seen = {}
    while True:
        gram = bytes(rng.randrange(256) for _ in range(4))
        other = seen.setdefault(_hash4(gram, 0), gram)
        if other != gram:
            return other, gram


class TestReferenceIdentity:
    """The production match finder builds every hash chain up front; the
    reference indexes one position at a time while parsing.  Their
    outputs must agree byte for byte, or every wire byte count and
    session digest downstream would move."""

    def test_seeded_corpus(self):
        # The sha256 pins the reference parser's output, so the format
        # holds even if both implementations changed together.
        h = hashlib.sha256()
        for data in _seeded_corpus():
            for chain in CHAINS:
                out = compress(data, chain)
                assert out == reference_compress(data, chain)
                h.update(out)
        assert h.hexdigest() == (
            "acc66891b4513d7a25783671dca177451ba3afea6a2fc1261ba35dbf2a2c49b2"
        )

    def test_hash_collisions_take_chain_slots(self):
        # Colliding grams share a chain without matching each other, so
        # they use up max_chain tries the way the reference's buckets do.
        a, b = _colliding_grams()
        rng = random.Random(9)
        for _ in range(20):
            data = b"".join(
                rng.choice((a, b)) + bytes([rng.randrange(3)])
                for _ in range(rng.randint(1, 120))
            )
            for chain in CHAINS:
                assert compress(data, chain) == reference_compress(data, chain)

    def test_offsets_at_and_beyond_window(self):
        rng = random.Random(3)
        filler = bytes(rng.randrange(256) for _ in range(MAX_OFFSET + 1))
        block = bytes(range(64))
        sizes = {}
        for gap in (MAX_OFFSET, MAX_OFFSET + 1):  # usable, out of reach
            data = block + filler[:gap - len(block)] + block
            for chain in (1, 8):
                assert compress(data, chain) == reference_compress(data, chain)
            sizes[gap] = len(compress(data))
        assert sizes[MAX_OFFSET] < sizes[MAX_OFFSET + 1]

    def test_real_command_batches(self):
        # What the egress pipeline hands the compressor on a G1 session:
        # cache references spliced between serialized commands.
        from repro.apps.base import CommandBatchBuilder, SceneState
        from repro.apps.games import GAMES
        from repro.codec.pipeline import CommandPipeline, PipelineConfig
        from repro.sim.kernel import Simulator

        builder = CommandBatchBuilder(
            GAMES["G1"], Simulator(seed=4).stream("test.commands")
        )
        scene = SceneState()
        pipeline = CommandPipeline(PipelineConfig(compression_enabled=False))
        batches = [builder.setup_commands()]
        for _ in range(40):
            scene.advance(1.0 / 30.0)
            batches.append(builder.frame_commands(scene))
        for batch in batches:
            raw = pipeline.process_frame(batch).payload
            assert compress(raw, 8) == reference_compress(raw, 8)


@settings(max_examples=150, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=1500),
        st.lists(st.sampled_from([b"\x00", b"ab", b"abc", b"\xca\xfe"]),
                 max_size=400).map(b"".join),
    ),
    chain=st.sampled_from(CHAINS),
)
def test_property_identical_to_reference(data, chain):
    assert compress(data, chain) == reference_compress(data, chain)
