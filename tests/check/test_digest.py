"""Frame digests: stable content hashing and issue/execute bookkeeping."""

import copy
import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.check import DigestLog, command_digest
from repro.gles.commands import GLCommand, make_command


def reference_digest(commands):
    """The digest recipe with nothing cached: ``repr(cmd.key())`` of each
    command, recomputed on every call, so it is independent of the
    fragment a command keeps."""
    h = hashlib.blake2b(digest_size=16)
    for cmd in commands:
        key = cmd.key() if hasattr(cmd, "key") else cmd
        h.update(repr(key).encode("utf-8") + b"\x00")
    return h.hexdigest()


def frame(n_draws=3, tex=4):
    cmds = [make_command("glBindTexture", 0x0DE1, tex)]
    for i in range(n_draws):
        cmds.append(make_command("glDrawArrays", 4, 0, 36 + i))
    return cmds


class TestCommandDigest:
    def test_same_commands_same_digest(self):
        assert command_digest(frame()) == command_digest(frame())

    def test_any_argument_change_changes_the_digest(self):
        assert command_digest(frame(tex=4)) != command_digest(frame(tex=5))

    def test_order_matters(self):
        cmds = frame()
        assert command_digest(cmds) != command_digest(list(reversed(cmds)))

    def test_empty_batch_digest_is_stable(self):
        assert command_digest([]) == command_digest([])
        assert command_digest([]) != command_digest(frame())

    def test_float_arguments_hash_verbatim(self):
        a = [make_command("glUniform1f", 0, 0.25)]
        b = [make_command("glUniform1f", 0, 0.25000001)]
        assert command_digest(a) != command_digest(b)

    def test_foreign_objects_fall_back_to_repr(self):
        # Tests may digest plain tuples; no .key() required.
        assert command_digest([("glFlush",)]) == command_digest([("glFlush",)])


class TestDigestLog:
    def test_faithful_replay_has_no_mismatches(self):
        log = DigestLog()
        for fid in range(5):
            cmds = frame(tex=fid)
            log.record_issue(fid, cmds)
            log.record_execution(fid, cmds, site="shield")
        assert log.fidelity_mismatches() == []
        assert log.duplicate_executions() == []
        assert len(log.stream()) == 5
        assert log.executed_frames() == [0, 1, 2, 3, 4]

    def test_mutated_replay_is_flagged(self):
        log = DigestLog()
        log.record_issue(0, frame(tex=1))
        log.record_execution(0, frame(tex=2), site="shield")
        (bad,) = log.fidelity_mismatches()
        assert bad["frame_id"] == 0
        assert bad["site"] == "shield"
        assert bad["issued"] != bad["executed"]

    def test_phantom_execution_is_flagged(self):
        log = DigestLog()
        log.record_execution(7, frame(), site="shield")
        (bad,) = log.fidelity_mismatches()
        assert bad["frame_id"] == 7
        assert bad["issued"] is None

    def test_failover_to_a_second_site_is_not_a_duplicate(self):
        log = DigestLog()
        cmds = frame()
        log.record_issue(0, cmds)
        log.record_execution(0, cmds, site="shield")
        log.record_execution(0, cmds, site="local")
        assert log.duplicate_executions() == []

    def test_same_site_repeat_is_a_duplicate(self):
        log = DigestLog()
        cmds = frame()
        log.record_issue(0, cmds)
        log.record_execution(0, cmds, site="shield")
        log.record_execution(0, cmds, site="shield")
        assert log.duplicate_executions() == [0]

    def test_summary_counts(self):
        log = DigestLog()
        log.record_issue(0, frame())
        log.record_execution(0, frame(), site="shield")
        log.record_execution(3, frame(), site="shield")   # phantom
        summary = log.summary()
        assert summary["frames_issued"] == 1
        assert summary["frames_executed"] == 2
        assert summary["fidelity_mismatches"] == 1


class TestIntervalDigest:
    """The streaming digest must agree with ``command_digest`` on every
    prefix — it is the replay store's content address."""

    def test_prefix_equality_with_command_digest(self):
        from repro.check import IntervalDigest

        cmds = frame(n_draws=6)
        rolling = IntervalDigest()
        for i, cmd in enumerate(cmds):
            rolling.update(cmd)
            assert rolling.hexdigest() == command_digest(cmds[: i + 1])

    def test_update_sequence_matches_item_updates(self):
        from repro.check import IntervalDigest

        cmds = frame()
        assert (
            IntervalDigest().update_sequence(cmds).hexdigest()
            == command_digest(cmds)
        )

    def test_copy_is_independent(self):
        from repro.check import IntervalDigest

        a = IntervalDigest().update_sequence(frame())
        b = a.copy()
        b.update(make_command("glFlush"))
        assert a.hexdigest() != b.hexdigest()
        assert a.hexdigest() == command_digest(frame())

    def test_empty_digest_matches_empty_batch(self):
        from repro.check import IntervalDigest

        assert IntervalDigest().hexdigest() == command_digest([])


class _Foreign:
    """A non-command object with a ``key()``, as tests digest."""

    def __init__(self, value):
        self.value = value

    def key(self):
        return ("foreign", self.value)


# Values that compare (and hash) equal yet print differently — exactly
# what a value-keyed memo would conflate.
_SCALARS = st.one_of(
    st.sampled_from([0, 1, True, False, 1.0, 0.0, -0.0, float("nan"), None]),
    st.integers(-2, 2),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["a", "1", "True"]),
    st.sampled_from([b"a", b"1", b""]),
)
_ARGS = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3).map(tuple),
    st.lists(_SCALARS, max_size=3),
    st.tuples(st.tuples(_SCALARS), _SCALARS),
    st.binary(max_size=3).map(bytearray),
    st.builds(_Foreign, _SCALARS),
)
_COMMANDS = st.one_of(
    st.builds(
        GLCommand,
        name=st.sampled_from(["glUniform1i", "glDepthMask", "glEnable"]),
        args=st.lists(_ARGS, max_size=3).map(tuple),
    ),
    # a list of args, frozen into the key on first use
    st.builds(
        GLCommand,
        name=st.just("glEnable"),
        args=st.lists(_SCALARS, max_size=2),
    ),
    st.builds(_Foreign, _SCALARS),
    st.tuples(st.just("glFlush"), _SCALARS),
)


#: how a frame re-issues a command of the pool: the very object, a
#: shallow copy (which shares its cached key and fragment), a
#: ``dataclasses.replace`` copy (which computes its own) or a replace with
#: one more argument (whose digest must differ from the original's)
_REUSE = st.sampled_from(["same", "copy", "replace", "replace_args"])


def _reissue(cmd, how):
    if how == "copy":
        return copy.copy(cmd)
    if type(cmd) is not GLCommand or how == "same":
        return cmd
    if how == "replace":
        return dataclasses.replace(cmd)
    return dataclasses.replace(cmd, args=(*cmd.args, True))


class TestDigestLogMemo:
    """A command keeps its digest fragment; digests through the kept
    fragments must equal the uncached reference on every stream, however
    the frames reuse and copy command objects."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_COMMANDS, min_size=1, max_size=6),
        st.lists(
            st.lists(st.tuples(st.integers(0, 5), _REUSE), max_size=8),
            min_size=1, max_size=8,
        ),
    )
    def test_memoized_digests_equal_reference(self, pool, frames):
        log = DigestLog()
        for fid, picks in enumerate(frames):
            cmds = [_reissue(pool[i % len(pool)], how) for i, how in picks]
            expected = reference_digest(cmds)
            assert log.record_issue(fid, cmds) == expected
            assert log.record_execution(fid, cmds, site="s") == expected
            assert command_digest(cmds) == expected

    @pytest.mark.parametrize(
        "values",
        [
            (1, True, 1.0),
            (0, False, 0.0, -0.0),
            ("1", b"1", 1),
            (None, 0, False),
        ],
    )
    def test_equal_values_of_different_types_digest_apart(self, values):
        log = DigestLog()
        batches = [[GLCommand("glUniform1i", (3, value))] for value in values]
        digests = []
        for cmds in batches * 2:            # second pass reads kept fragments
            digest = log.digest(cmds)
            assert digest == reference_digest(cmds)
            digests.append(digest)
        assert len(set(digests)) == len(values)

    @pytest.mark.parametrize(
        "issued, executed", [(False, 0), (0, False), (0.0, -0.0), (1, 1.0)]
    )
    def test_a_type_swap_in_execution_is_a_fidelity_mismatch(
        self, issued, executed
    ):
        def batch(value):
            return [
                make_command("glBindTexture", 0x0DE1, 4),
                GLCommand("glDepthMask", (value,)),
                make_command("glDrawArrays", 4, 0, 36),
            ]

        log = DigestLog()
        issued_batch = batch(issued)
        for fid in range(3):                # warm the issued form's fragments
            log.record_issue(fid, issued_batch)
            log.record_execution(fid, issued_batch, site="shield")
        log.record_issue(3, issued_batch)
        log.record_execution(3, batch(executed), site="shield")
        (bad,) = log.fidelity_mismatches()
        assert bad["frame_id"] == 3
        assert bad["executed"] == reference_digest(batch(executed))
