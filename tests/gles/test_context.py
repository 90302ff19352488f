"""GL context state machine behaviour."""

import pytest

from repro.gles import enums as gl
from repro.gles.commands import GLCommand, make_command
from repro.gles.context import GLContext, GLError


def make_linked_program(ctx):
    vs = ctx.execute(make_command("glCreateShader", gl.GL_VERTEX_SHADER))
    ctx.execute(make_command("glShaderSource", vs, "void main() {}"))
    ctx.execute(make_command("glCompileShader", vs))
    fs = ctx.execute(make_command("glCreateShader", gl.GL_FRAGMENT_SHADER))
    ctx.execute(make_command("glShaderSource", fs, "void main() {}"))
    ctx.execute(make_command("glCompileShader", fs))
    prog = ctx.execute(make_command("glCreateProgram"))
    ctx.execute(make_command("glAttachShader", prog, vs))
    ctx.execute(make_command("glAttachShader", prog, fs))
    ctx.execute(make_command("glLinkProgram", prog))
    return prog


class TestBuffers:
    def test_gen_bind_upload(self):
        ctx = GLContext()
        names = ctx.execute(make_command("glGenBuffers", 2))
        assert len(names) == 2
        ctx.execute(make_command("glBindBuffer", gl.GL_ARRAY_BUFFER, names[0]))
        ctx.execute(
            make_command("glBufferData", gl.GL_ARRAY_BUFFER, 4, b"abcd",
                         gl.GL_STATIC_DRAW)
        )
        assert ctx.buffers[names[0]].data == b"abcd"
        assert ctx.buffer_bytes_uploaded == 4

    def test_buffer_sub_data_range_check(self):
        ctx = GLContext()
        (vbo,) = ctx.execute(make_command("glGenBuffers", 1))
        ctx.execute(make_command("glBindBuffer", gl.GL_ARRAY_BUFFER, vbo))
        ctx.execute(
            make_command("glBufferData", gl.GL_ARRAY_BUFFER, 8, bytes(8),
                         gl.GL_STATIC_DRAW)
        )
        ctx.execute(
            make_command("glBufferSubData", gl.GL_ARRAY_BUFFER, 4, 4, b"wxyz")
        )
        assert ctx.buffers[vbo].data == bytes(4) + b"wxyz"
        # Out of range latches an error.
        ctx.execute(
            make_command("glBufferSubData", gl.GL_ARRAY_BUFFER, 6, 4, b"wxyz")
        )
        assert ctx.get_error() == gl.GL_INVALID_VALUE

    def test_upload_without_binding_is_error(self):
        ctx = GLContext()
        ctx.execute(
            make_command("glBufferData", gl.GL_ARRAY_BUFFER, 4, b"abcd",
                         gl.GL_STATIC_DRAW)
        )
        assert ctx.get_error() == gl.GL_INVALID_OPERATION

    def test_delete_unbinds(self):
        ctx = GLContext()
        (vbo,) = ctx.execute(make_command("glGenBuffers", 1))
        ctx.execute(make_command("glBindBuffer", gl.GL_ARRAY_BUFFER, vbo))
        ctx.execute(make_command("glDeleteBuffers", 1, (vbo,)))
        assert ctx.bound_array_buffer == 0
        assert vbo not in ctx.buffers


class TestTextures:
    def test_upload_accounting(self):
        ctx = GLContext()
        (tex,) = ctx.execute(make_command("glGenTextures", 1))
        ctx.execute(make_command("glBindTexture", gl.GL_TEXTURE_2D, tex))
        ctx.execute(
            make_command("glTexImage2D", gl.GL_TEXTURE_2D, 0, gl.GL_RGBA,
                         16, 16, 0, gl.GL_RGBA, gl.GL_UNSIGNED_BYTE, None)
        )
        assert ctx.textures[tex].width == 16
        assert ctx.texture_bytes_uploaded == 16 * 16 * 4

    def test_subimage_bounds(self):
        ctx = GLContext()
        (tex,) = ctx.execute(make_command("glGenTextures", 1))
        ctx.execute(make_command("glBindTexture", gl.GL_TEXTURE_2D, tex))
        ctx.execute(
            make_command("glTexImage2D", gl.GL_TEXTURE_2D, 0, gl.GL_RGBA,
                         8, 8, 0, gl.GL_RGBA, gl.GL_UNSIGNED_BYTE, None)
        )
        ctx.execute(
            make_command("glTexSubImage2D", gl.GL_TEXTURE_2D, 0, 4, 4, 8, 8,
                         gl.GL_RGBA, gl.GL_UNSIGNED_BYTE, None)
        )
        assert ctx.get_error() == gl.GL_INVALID_VALUE

    def test_active_texture_unit_binding(self):
        ctx = GLContext()
        (tex,) = ctx.execute(make_command("glGenTextures", 1))
        ctx.execute(make_command("glActiveTexture", gl.GL_TEXTURE0 + 3))
        ctx.execute(make_command("glBindTexture", gl.GL_TEXTURE_2D, tex))
        assert ctx.texture_bindings[3][gl.GL_TEXTURE_2D] == tex
        assert ctx.texture_bindings[0][gl.GL_TEXTURE_2D] == 0

    def test_mipmap_levels(self):
        ctx = GLContext()
        (tex,) = ctx.execute(make_command("glGenTextures", 1))
        ctx.execute(make_command("glBindTexture", gl.GL_TEXTURE_2D, tex))
        ctx.execute(
            make_command("glTexImage2D", gl.GL_TEXTURE_2D, 0, gl.GL_RGBA,
                         64, 64, 0, gl.GL_RGBA, gl.GL_UNSIGNED_BYTE, None)
        )
        ctx.execute(make_command("glGenerateMipmap", gl.GL_TEXTURE_2D))
        assert ctx.textures[tex].levels == 7  # 64..1


class TestShadersPrograms:
    def test_full_compile_link_flow(self):
        ctx = GLContext()
        prog = make_linked_program(ctx)
        assert ctx.programs[prog].linked
        ctx.execute(make_command("glUseProgram", prog))
        assert ctx.current_program == prog

    def test_compile_failure_info_log(self):
        ctx = GLContext()
        sh = ctx.execute(make_command("glCreateShader", gl.GL_VERTEX_SHADER))
        ctx.execute(make_command("glShaderSource", sh, "not a shader"))
        ctx.execute(make_command("glCompileShader", sh))
        assert ctx.execute(
            make_command("glGetShaderiv", sh, gl.GL_COMPILE_STATUS)
        ) == 0
        assert "error" in ctx.execute(make_command("glGetShaderInfoLog", sh))

    def test_link_requires_both_stages(self):
        ctx = GLContext()
        vs = ctx.execute(make_command("glCreateShader", gl.GL_VERTEX_SHADER))
        ctx.execute(make_command("glShaderSource", vs, "void main() {}"))
        ctx.execute(make_command("glCompileShader", vs))
        prog = ctx.execute(make_command("glCreateProgram"))
        ctx.execute(make_command("glAttachShader", prog, vs))
        ctx.execute(make_command("glLinkProgram", prog))
        assert not ctx.programs[prog].linked

    def test_use_unlinked_program_is_error(self):
        ctx = GLContext()
        prog = ctx.execute(make_command("glCreateProgram"))
        ctx.execute(make_command("glUseProgram", prog))
        assert ctx.get_error() == gl.GL_INVALID_OPERATION

    def test_uniform_locations_stable(self):
        ctx = GLContext()
        prog = make_linked_program(ctx)
        loc1 = ctx.execute(make_command("glGetUniformLocation", prog, "u_mvp"))
        loc2 = ctx.execute(make_command("glGetUniformLocation", prog, "u_mvp"))
        other = ctx.execute(make_command("glGetUniformLocation", prog, "u_t"))
        assert loc1 == loc2
        assert loc1 != other


class TestUniformsAttribs:
    def test_uniform_requires_program(self):
        ctx = GLContext()
        ctx.execute(make_command("glUniform1f", 0, 1.0))
        assert ctx.get_error() == gl.GL_INVALID_OPERATION

    def test_uniform_stored(self):
        ctx = GLContext()
        prog = make_linked_program(ctx)
        ctx.execute(make_command("glUseProgram", prog))
        ctx.execute(make_command("glUniform4f", 2, 1.0, 2.0, 3.0, 4.0))
        assert ctx.programs[prog].uniforms[2] == (1.0, 2.0, 3.0, 4.0)

    def test_negative_location_ignored(self):
        ctx = GLContext()
        prog = make_linked_program(ctx)
        ctx.execute(make_command("glUseProgram", prog))
        ctx.execute(make_command("glUniform1f", -1, 9.0))
        assert ctx.get_error() == gl.GL_NO_ERROR
        assert -1 not in ctx.programs[prog].uniforms

    def test_vertex_attrib_pointer_state(self):
        ctx = GLContext()
        (vbo,) = ctx.execute(make_command("glGenBuffers", 1))
        ctx.execute(make_command("glBindBuffer", gl.GL_ARRAY_BUFFER, vbo))
        ctx.execute(make_command("glEnableVertexAttribArray", 2))
        ctx.execute(
            make_command("glVertexAttribPointer", 2, 3, gl.GL_FLOAT, False,
                         20, 0)
        )
        attrib = ctx.vertex_attribs[2]
        assert attrib.enabled
        assert attrib.size == 3
        assert attrib.buffer_binding == vbo
        assert attrib.effective_stride() == 20

    def test_attrib_index_out_of_range(self):
        ctx = GLContext()
        ctx.execute(make_command("glEnableVertexAttribArray", 99))
        assert ctx.get_error() == gl.GL_INVALID_VALUE

    def test_attrib_bad_size(self):
        ctx = GLContext()
        ctx.execute(
            make_command("glVertexAttribPointer", 0, 7, gl.GL_FLOAT, False,
                         0, 0)
        )
        assert ctx.get_error() == gl.GL_INVALID_VALUE


class TestDrawAndState:
    def test_draw_without_program_is_error(self):
        ctx = GLContext()
        ctx.execute(make_command("glDrawArrays", gl.GL_TRIANGLES, 0, 3))
        assert ctx.get_error() == gl.GL_INVALID_OPERATION
        assert ctx.draw_calls == 0

    def test_draw_accounting(self):
        ctx = GLContext()
        prog = make_linked_program(ctx)
        ctx.execute(make_command("glUseProgram", prog))
        ctx.execute(make_command("glDrawArrays", gl.GL_TRIANGLES, 0, 36))
        ctx.execute(
            make_command("glDrawElements", gl.GL_TRIANGLES, 12,
                         gl.GL_UNSIGNED_SHORT, None)
        )
        assert ctx.draw_calls == 2
        assert ctx.vertices_submitted == 48

    def test_enable_disable_capabilities(self):
        ctx = GLContext()
        ctx.execute(make_command("glEnable", gl.GL_BLEND))
        assert ctx.execute(make_command("glIsEnabled", gl.GL_BLEND))
        ctx.execute(make_command("glDisable", gl.GL_BLEND))
        assert not ctx.execute(make_command("glIsEnabled", gl.GL_BLEND))

    def test_bad_capability(self):
        ctx = GLContext()
        ctx.execute(make_command("glEnable", 0x9999))
        assert ctx.get_error() == gl.GL_INVALID_ENUM

    def test_clear_color_clamped(self):
        ctx = GLContext()
        ctx.execute(make_command("glClearColor", 2.0, -1.0, 0.5, 1.0))
        assert ctx.clear_color == (1.0, 0.0, 0.5, 1.0)

    def test_viewport_negative_rejected(self):
        ctx = GLContext()
        ctx.execute(make_command("glViewport", 0, 0, -1, 480))
        assert ctx.get_error() == gl.GL_INVALID_VALUE

    def test_strict_mode_raises(self):
        ctx = GLContext(strict=True)
        with pytest.raises(GLError):
            ctx.execute(make_command("glEnable", 0x9999))

    def test_get_error_clears(self):
        ctx = GLContext()
        ctx.execute(make_command("glEnable", 0x9999))
        assert ctx.get_error() == gl.GL_INVALID_ENUM
        assert ctx.get_error() == gl.GL_NO_ERROR


class TestStateDigest:
    def test_same_commands_same_digest(self):
        def build():
            ctx = GLContext()
            prog = make_linked_program(ctx)
            ctx.execute(make_command("glUseProgram", prog))
            ctx.execute(make_command("glViewport", 0, 0, 640, 480))
            ctx.execute(make_command("glEnable", gl.GL_DEPTH_TEST))
            return ctx

        assert build().state_digest() == build().state_digest()

    def test_any_state_change_alters_digest(self):
        a, b = GLContext(), GLContext()
        base = a.state_digest()
        assert base == b.state_digest()
        b.execute(make_command("glEnable", gl.GL_BLEND))
        assert b.state_digest() != base

    def test_draws_do_not_alter_digest(self):
        ctx = GLContext()
        prog = make_linked_program(ctx)
        ctx.execute(make_command("glUseProgram", prog))
        before = ctx.state_digest()
        ctx.execute(make_command("glDrawArrays", gl.GL_TRIANGLES, 0, 30))
        ctx.execute(make_command("glFlush"))
        assert ctx.state_digest() == before


class TestDispatch:
    """``execute`` dispatches through a per-class handler table."""

    def test_subclass_override_is_honoured(self):
        class Recording(GLContext):
            def __init__(self):
                super().__init__()
                self.enabled = []

            def _op_glEnable(self, cap):
                self.enabled.append(cap)
                super()._op_glEnable(cap)

        base = GLContext()
        base.execute(make_command("glEnable", gl.GL_BLEND))
        ctx = Recording()
        ctx.execute(make_command("glEnable", gl.GL_BLEND))
        assert ctx.enabled == [gl.GL_BLEND]
        assert ctx.capabilities[gl.GL_BLEND] is True
        assert base.capabilities[gl.GL_BLEND] is True

    def test_unknown_name_raises_key_error(self):
        with pytest.raises(KeyError, match="glNotAThing"):
            GLContext().execute(GLCommand("glNotAThing", ()))

    def test_unmodelled_mutating_command_raises(self):
        class Unmodelled(GLContext):
            _op_glEnable = None

        with pytest.raises(NotImplementedError, match="glEnable"):
            Unmodelled().execute(make_command("glEnable", gl.GL_BLEND))

    def test_stateless_command_without_handler_is_a_no_op(self):
        ctx = GLContext()
        assert ctx.execute(make_command("glValidateProgram", 0)) is None
