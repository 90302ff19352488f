"""LRU command cache and sender/receiver lockstep."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.codec.command_cache import (
    CachePair,
    LRUCommandCache,
    REFERENCE_BYTES,
    REFERENCE_MARKER,
    key_digest,
)
from repro.gles.commands import make_command


def unreachable():
    raise AssertionError("a cache hit must not re-encode the command")


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCommandCache(capacity=4)
        key = ("glFlush", ())
        assert cache.lookup(key) is None
        cache.insert(key, b"wire")
        assert cache.lookup(key).wire == b"wire"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_eviction_order_is_lru(self):
        cache = LRUCommandCache(capacity=2)
        cache.insert(("a",), b"1")
        cache.insert(("b",), b"2")
        cache.lookup(("a",))          # refresh a
        cache.insert(("c",), b"3")     # evicts b
        assert cache.lookup(("b",)) is None
        assert cache.lookup(("a",)).wire == b"1"
        assert cache.stats.evictions == 1

    def test_reinsert_refreshes_without_duplicate(self):
        cache = LRUCommandCache(capacity=2)
        cache.insert(("a",), b"1")
        cache.insert(("a",), b"1")
        assert len(cache) == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LRUCommandCache(capacity=0)

    def test_hit_rate(self):
        cache = LRUCommandCache(capacity=8)
        key = ("k",)
        cache.lookup(key)
        cache.insert(key, b"x")
        cache.lookup(key)
        cache.lookup(key)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)


class TestCachePair:
    def test_first_send_full_then_reference(self):
        pair = CachePair(capacity=16)
        cmd = make_command("glUseProgram", 3)
        wire = b"x" * 50
        _, sent1, hit1 = pair.encode(cmd.key(), lambda: wire)
        cached, sent2, hit2 = pair.encode(cmd.key(), unreachable)
        assert (sent1, hit1) == (wire, False)
        assert (len(sent2), hit2) == (REFERENCE_BYTES, True)
        assert sent2[:2] == REFERENCE_MARKER
        assert cached == wire

    def test_pair_stays_consistent(self):
        pair = CachePair(capacity=4)
        cmds = [make_command("glUseProgram", i % 6) for i in range(100)]
        for cmd in cmds:
            pair.encode(cmd.key(), lambda: b"w" * 20)
            assert pair.verify_consistent()

    def test_different_args_are_different_entries(self):
        pair = CachePair(capacity=16)
        *_, hit_a = pair.encode(
            make_command("glUniform1f", 0, 1.0).key(), lambda: b"a"
        )
        *_, hit_b = pair.encode(
            make_command("glUniform1f", 0, 2.0).key(), lambda: b"b"
        )
        assert not hit_a and not hit_b

    def test_traffic_saving_on_repetitive_stream(self):
        pair = CachePair(capacity=64)
        total_wire = 0
        total_raw = 0
        for frame in range(50):
            for slot in range(8):
                cmd = make_command("glBindTexture", 0x0DE1, slot)
                wire = b"y" * 24
                _, sent, _hit = pair.encode(cmd.key(), lambda: wire)
                total_wire += len(sent)
                total_raw += len(wire)
        assert total_wire < total_raw * 0.5

    def test_hit_rate_property(self):
        pair = CachePair(capacity=8)
        cmd = make_command("glFlush")
        for _ in range(10):
            pair.encode(cmd.key(), lambda: b"z" * 12)
        assert pair.hit_rate == pytest.approx(0.9)


@settings(max_examples=100, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=12), min_size=1,
                  max_size=300),
    capacity=st.integers(min_value=1, max_value=16),
)
def test_property_pair_never_desyncs(keys, capacity):
    """Whatever the access pattern, sender and receiver stay identical."""
    pair = CachePair(capacity=capacity)
    for k in keys:
        cmd = make_command("glUseProgram", k)
        pair.encode(cmd.key(), lambda: bytes(16))
    assert pair.verify_consistent()


@settings(max_examples=100, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                  max_size=200),
)
def test_property_cache_never_exceeds_capacity(keys):
    cache = LRUCommandCache(capacity=10)
    for k in keys:
        cache.insert((k,), b"v")
    assert len(cache) <= 10


class TestReinsertRefresh:
    """Regression tests: ``insert`` on an existing key must refresh the
    stored bytes, not just recency — serving stale bytes on a later hit
    desyncs the receiver's replay."""

    def test_reinsert_updates_stored_bytes(self):
        cache = LRUCommandCache(capacity=4)
        cache.insert(("k",), b"old")
        cache.insert(("k",), b"new")
        assert cache.lookup(("k",)).wire == b"new"

    def test_reinsert_refreshes_recency(self):
        cache = LRUCommandCache(capacity=2)
        cache.insert(("a",), b"1")
        cache.insert(("b",), b"2")
        cache.insert(("a",), b"1*")    # re-insert: a becomes newest
        cache.insert(("c",), b"3")     # should evict b, not a
        assert ("a",) in cache
        assert ("b",) not in cache

    def test_pair_replays_latest_bytes_after_reencode(self):
        """Evict a key, re-encode it with different wire bytes, and check
        a later hit references the new bytes on both sides."""
        pair = CachePair(capacity=1)
        cmd_a = make_command("glUseProgram", 1)
        cmd_b = make_command("glUseProgram", 2)
        pair.encode(cmd_a.key(), lambda: b"v1" * 8)
        pair.encode(cmd_b.key(), lambda: b"xx" * 8)  # evicts cmd_a both sides
        pair.encode(cmd_a.key(), lambda: b"v2" * 8)  # re-learned, new bytes
        assert pair.sender.lookup(cmd_a.key()).wire == b"v2" * 8
        assert pair.receiver.lookup(cmd_a.key()).wire == b"v2" * 8


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),     # key
            st.integers(min_value=0, max_value=3),     # payload version
        ),
        min_size=1,
        max_size=200,
    ),
)
def test_property_lookup_returns_last_inserted_bytes(ops):
    """Whatever the insert pattern, a hit always serves the newest bytes."""
    cache = LRUCommandCache(capacity=4)
    latest = {}
    for key_id, version in ops:
        key = ("glUseProgram", key_id)
        wire = bytes([key_id, version]) * 8
        cache.insert(key, wire)
        latest[key] = wire
    for key, wire in latest.items():
        if key in cache:
            assert cache.lookup(key).wire == wire


class TestStatsAndFootprint:
    def test_refreshes_counter(self):
        cache = LRUCommandCache(capacity=4)
        cache.insert(("k",), b"old")
        assert cache.stats.refreshes == 0
        cache.insert(("k",), b"new")
        cache.insert(("k",), b"newer")
        assert cache.stats.refreshes == 2
        cache.insert(("other",), b"x")     # fresh key: not a refresh
        assert cache.stats.refreshes == 2

    def test_byte_size_tracks_stored_wire_bytes(self):
        cache = LRUCommandCache(capacity=4)
        assert cache.byte_size() == 0
        cache.insert(("a",), b"12345")
        cache.insert(("b",), b"678")
        assert cache.byte_size() == 8

    def test_byte_size_after_refresh_and_eviction(self):
        cache = LRUCommandCache(capacity=2)
        cache.insert(("a",), b"aaaa")
        cache.insert(("a",), b"aa")        # refresh shrinks the entry
        assert cache.byte_size() == 2
        cache.insert(("b",), b"bb")
        cache.insert(("c",), b"cccc")      # evicts a
        assert cache.byte_size() == len(b"bb") + len(b"cccc")


class TestReferences:
    def test_hit_sends_the_reference_stored_with_the_entry(self):
        pair = CachePair(capacity=4)
        key = make_command("glUseProgram", 5).key()
        pair.encode(key, lambda: b"w" * 12)
        wire, sent, hit = pair.encode(key, unreachable)
        assert hit and wire == b"w" * 12
        assert sent == REFERENCE_MARKER + key_digest(key)

    @pytest.mark.parametrize("first,second", [(-0.0, 0.0), (1, 1.0)])
    def test_equal_keys_reference_the_key_the_receiver_holds(
        self, first, second
    ):
        """``-0.0 == 0.0`` and ``1 == 1.0`` share an entry; the reference
        must name that entry as the receiver holds it, not as the hitting
        command writes it."""
        pair = CachePair(capacity=4)
        held = make_command("glUniform1f", 0, first).key()
        hitting = make_command("glUniform1f", 0, second).key()
        assert held == hitting and repr(held) != repr(hitting)
        pair.encode(held, lambda: b"w")
        _, sent, hit = pair.encode(hitting, unreachable)
        assert hit
        (receiver_key,) = pair.receiver.keys_in_order()
        assert repr(receiver_key) == repr(held)
        assert sent == REFERENCE_MARKER + key_digest(receiver_key)
