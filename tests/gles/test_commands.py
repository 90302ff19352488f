"""Command registry and GLCommand construction."""

import pytest

from repro.gles.commands import (
    COMMANDS,
    GLCommand,
    ParamType,
    command_spec,
    draw_names,
    make_command,
    state_mutating_names,
)


def test_registry_is_substantial():
    # The ES 2.0 core API is ~140 entry points; we model the commonly used
    # majority and must not silently shrink.
    assert len(COMMANDS) >= 90


def test_lookup_known_command():
    spec = command_spec("glDrawArrays")
    assert spec.is_draw
    assert not spec.mutates_state
    assert [p.name for p in spec.params] == ["mode", "first", "count"]


def test_lookup_unknown_command_raises():
    with pytest.raises(KeyError):
        command_spec("glMadeUp")


def test_make_command_validates_arity():
    cmd = make_command("glViewport", 0, 0, 640, 480)
    assert cmd.args == (0, 0, 640, 480)
    with pytest.raises(TypeError):
        make_command("glViewport", 0, 0)


def test_draw_commands_classified():
    draws = draw_names()
    assert "glDrawArrays" in draws
    assert "glDrawElements" in draws
    assert "glClear" in draws


def test_state_mutating_classification():
    mutating = set(state_mutating_names())
    # Anything altering context state must be flagged: these are what
    # multi-device replication distributes (paper §VI-B).
    for name in (
        "glBindTexture",
        "glUseProgram",
        "glBufferData",
        "glEnable",
        "glViewport",
        "glVertexAttribPointer",
        "glUniformMatrix4fv",
    ):
        assert name in mutating, name
    # Draws and pure queries must not be.
    for name in ("glDrawArrays", "glGetError", "glFinish", "glReadPixels"):
        assert name not in mutating, name


def test_vertex_attrib_pointer_has_deferred_param():
    spec = command_spec("glVertexAttribPointer")
    kinds = [p.kind for p in spec.params]
    assert ParamType.DEFERRED_POINTER in kinds


def test_command_key_hashable_and_stable():
    a = make_command("glUniform1f", 3, 0.5)
    b = make_command("glUniform1f", 3, 0.5)
    c = make_command("glUniform1f", 3, 0.6)
    assert a.key() == b.key()
    assert a.key() != c.key()
    {a.key(): 1}  # must be hashable


def test_command_key_freezes_mutable_args():
    cmd = make_command("glDeleteBuffers", 2, [1, 2])
    key = cmd.key()
    hash(key)  # lists converted to tuples


def test_flat_args_key_is_the_args_tuple_itself():
    cmd = make_command("glUniform1f", 3, 0.5)
    assert cmd.key()[1] is cmd.args


def test_nested_args_key_equals_the_frozen_form():
    nested = make_command("glDeleteBuffers", 2, [1, bytearray(b"ab")])
    assert nested.key() == ("glDeleteBuffers", (2, (1, b"ab")))
    flat = make_command("glUniform4f", 0, 1.0, 2.0, 3.0, 4.0)
    frozen = ("glUniform4f", (0, 1.0, 2.0, 3.0, 4.0))
    assert flat.key() == frozen
    assert hash(flat.key()) == hash(frozen)
    assert repr(flat.key()) == repr(frozen)


def test_metadata_not_part_of_identity():
    a = make_command("glClear", 0x4000, metadata={"pixels": 100})
    b = make_command("glClear", 0x4000)
    assert a.key() == b.key()


def test_every_spec_has_unique_opcode_material():
    names = list(COMMANDS)
    assert len(names) == len(set(names))
