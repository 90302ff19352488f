"""LZ77 compressor: round-trip correctness, compression behaviour, and
byte-identity with the reference parser in ``lz77_reference.py``."""

import functools
import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


@functools.lru_cache(maxsize=None)
def _real_batches():
    """What the egress pipeline hands the compressor on a G1 session:
    cache references spliced between serialized commands (the set-up
    batch, then 40 frames), before compression."""
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
    return tuple(pipeline.process_frame(batch).payload for batch in batches)


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
        for raw in _real_batches():
            assert compress(raw, 8) == reference_compress(raw, 8)


def _distinct_grams(n: int, seed: int) -> bytes:
    """``n`` random bytes in which no 4-byte string occurs twice, so the
    parser can find no match inside them."""
    rng = random.Random(seed)
    while True:
        data = bytes(rng.randrange(256) for _ in range(n))
        grams = {data[i:i + 4] for i in range(n - 3)}
        if len(grams) == max(0, n - 3):
            return data


def _extension(value: int) -> bytes:
    """LZ4's bytes after a nibble of 15, written out by hand."""
    return b"\xff" * ((value - 15) // 255) + bytes([(value - 15) % 255])


class TestEmissionBranches:
    """Each way a sequence is written: a literal run and a match length
    below and at or above their nibble's 15, extension chains that cross
    255, and the smallest inputs the match finder indexes."""

    @pytest.mark.parametrize("literals", [4, 14, 15, 16, 269, 270, 271, 525])
    @pytest.mark.parametrize("match", [4, 18, 19, 20, 273, 274, 275, 529])
    def test_one_sequence(self, literals, match):
        # A run of distinct grams, then ``match`` bytes copied from it at
        # offset ``literals`` (overlapping once the match is longer).
        head = _distinct_grams(literals, literals)
        data = head + (head * (match // literals + 1))[:match]
        token = (min(literals, 15) << 4) | min(match - 4, 15)
        expected = bytes([token])
        if literals >= 15:
            expected += _extension(literals)
        expected += head + literals.to_bytes(2, "little")
        if match - 4 >= 15:
            expected += _extension(match - 4)
        assert compress(data) == expected == reference_compress(data)
        assert decompress(expected) == data

    @pytest.mark.parametrize("literals", [1, 14, 15, 269, 270, 525])
    def test_final_literal_run(self, literals):
        data = _distinct_grams(literals, literals)
        expected = bytes([min(literals, 15) << 4])
        if literals >= 15:
            expected += _extension(literals)
        assert compress(data) == expected + data == reference_compress(data)

    def test_extensions_crossing_255(self):
        # 270 literals and a 274-byte match: both remainders are exactly
        # 255, so each extension is a 255 and then a 0.
        head = _distinct_grams(270, 270)
        data = head + (head * 2)[:274]
        assert compress(data) == (
            b"\xff\xff\x00" + head + b"\x0e\x01\xff\x00"
        )

    @pytest.mark.parametrize(
        "data, expected",
        [
            (b"aaaa", b"\x40aaaa"),
            (b"abcd", b"\x40abcd"),
            (b"aaaaa", b"\x10a\x01\x00"),
            (b"abcda", b"\x50abcda"),
            (b"ababa", b"\x50ababa"),
        ],
    )
    def test_four_and_five_bytes(self, data, expected):
        for chain in CHAINS:
            assert compress(data, chain) == expected
            assert reference_compress(data, chain) == expected

    def test_unbounded_chain_stops_at_the_window(self):
        # 70 KB of 256 repeated 16-byte blocks: with max_chain=0 every
        # chain is walked until it leaves the 64 KB window.
        rng = random.Random(70)
        blocks = [bytes(rng.randrange(256) for _ in range(16))
                  for _ in range(256)]
        data = b"".join(rng.choice(blocks) for _ in range(70_000 // 16))
        assert len(data) > MAX_OFFSET + 1
        out = compress(data, max_chain=0)
        assert out == reference_compress(data, max_chain=0)
        assert decompress(out) == data


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


@st.composite
def _spliced_batches(draw, max_size=8192):
    """Real command batches joined end to end, with a few runs of
    arbitrary bytes spliced in."""
    parts = draw(st.lists(st.sampled_from(_real_batches()),
                          min_size=1, max_size=6))
    data = bytearray(b"".join(parts)[:max_size])
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(data)))
        data[at:at] = draw(st.binary(max_size=32))
    return bytes(data[:max_size])


@pytest.mark.fuzz
def test_deep_property_identical_to_reference(request):
    """``test_property_identical_to_reference`` at depth: inputs up to
    8 KB, real command batches among them.  Selected with ``-m fuzz`` it
    draws 2,000 examples; a plain run draws 40, so tier 1 stays fast."""
    deep = "fuzz" in (request.config.getoption("markexpr") or "")

    @settings(
        max_examples=2000 if deep else 40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        data=st.one_of(
            st.binary(max_size=8192),
            st.lists(st.sampled_from([b"\x00", b"ab", b"abc", b"\xca\xfe"]),
                     max_size=2700).map(b"".join),
            _spliced_batches(),
        ),
        chain=st.sampled_from(CHAINS),
    )
    def identical(data, chain):
        assert compress(data, chain) == reference_compress(data, chain)

    identical()
