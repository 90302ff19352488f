"""The OpenGL ES context state machine.

A context is "essentially a state machine that stores all data related to
the rendering process" (paper §VI-B).  The service device replays forwarded
commands against a context just like a real driver would, so state
consistency across devices is observable: two contexts that received the
same state-mutating prefix must compare equal (``state_digest``).

The implementation covers the ES 2.0 state that the simulated workloads
exercise: buffer and texture objects, shaders and programs, vertex-attribute
bindings (including client-side pointers), uniforms, and the fixed-function
raster state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.gles import enums as gl
from repro.gles.commands import COMMANDS, GLCommand, command_spec


class GLError(Exception):
    """A GL error raised in strict mode; also latched like glGetError."""

    def __init__(self, code: int, message: str):
        super().__init__(f"0x{code:04X}: {message}")
        self.code = code


@dataclass
class BufferObject:
    name: int
    target: int = 0
    size: int = 0
    usage: int = gl.GL_STATIC_DRAW
    data: bytes = b""


@dataclass
class TextureObject:
    name: int
    target: int = 0
    width: int = 0
    height: int = 0
    fmt: int = gl.GL_RGBA
    levels: int = 1
    params: Dict[int, float] = field(default_factory=dict)
    byte_size: int = 0


@dataclass
class ShaderObject:
    name: int
    shader_type: int
    source: str = ""
    compiled: bool = False
    info_log: str = ""


@dataclass
class ProgramObject:
    name: int
    shaders: List[int] = field(default_factory=list)
    linked: bool = False
    attrib_locations: Dict[str, int] = field(default_factory=dict)
    uniform_locations: Dict[str, int] = field(default_factory=dict)
    uniforms: Dict[int, Tuple[Any, ...]] = field(default_factory=dict)
    _next_uniform: int = 0


@dataclass
class VertexAttribState:
    enabled: bool = False
    size: int = 4
    dtype: int = gl.GL_FLOAT
    normalized: bool = False
    stride: int = 0
    pointer: Any = None           # client-side array handle or buffer offset
    buffer_binding: int = 0       # VBO bound when the pointer was set
    generic_value: Tuple[float, float, float, float] = (0.0, 0.0, 0.0, 1.0)

    def element_bytes(self) -> int:
        return self.size * gl.TYPE_SIZES.get(self.dtype, 4)

    def effective_stride(self) -> int:
        return self.stride if self.stride > 0 else self.element_bytes()


MAX_VERTEX_ATTRIBS = 16
MAX_TEXTURE_UNITS = 8


def _op_table(cls: type) -> Dict[str, Callable[..., Any]]:
    """Registered command name -> ``cls``'s ``_op_`` handler, resolved
    through the MRO so a subclass override wins."""
    table = {}
    for name in COMMANDS:
        handler = getattr(cls, "_op_" + name, None)
        if handler is not None:
            table[name] = handler
    return table


class GLContext:
    """A replayable ES 2.0 state machine.

    ``execute`` applies one command; in strict mode malformed commands raise
    :class:`GLError`, otherwise the error is latched for ``glGetError`` as a
    real driver does.
    """

    #: command name -> ``_op_`` handler; each subclass gets its own table
    #: when it is defined, and GLContext's is set below the class
    _op_handlers: Dict[str, Callable[..., Any]]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._op_handlers = _op_table(cls)

    def __init__(self, name: str = "ctx", strict: bool = False):
        self.name = name
        self.strict = strict
        self.error = gl.GL_NO_ERROR

        self._next_name = 1
        self.buffers: Dict[int, BufferObject] = {}
        self.textures: Dict[int, TextureObject] = {}
        self.shaders: Dict[int, ShaderObject] = {}
        self.programs: Dict[int, ProgramObject] = {}
        self.framebuffers: Dict[int, dict] = {0: {}}
        self.renderbuffers: Dict[int, dict] = {}

        self.bound_array_buffer = 0
        self.bound_element_buffer = 0
        self.bound_framebuffer = 0
        self.bound_renderbuffer = 0
        self.active_texture_unit = 0
        self.texture_bindings: List[Dict[int, int]] = [
            {gl.GL_TEXTURE_2D: 0, gl.GL_TEXTURE_CUBE_MAP: 0}
            for _ in range(MAX_TEXTURE_UNITS)
        ]
        self.current_program = 0
        self.vertex_attribs: List[VertexAttribState] = [
            VertexAttribState() for _ in range(MAX_VERTEX_ATTRIBS)
        ]

        self.capabilities: Dict[int, bool] = {
            gl.GL_CULL_FACE: False,
            gl.GL_BLEND: False,
            gl.GL_DITHER: True,
            gl.GL_STENCIL_TEST: False,
            gl.GL_DEPTH_TEST: False,
            gl.GL_SCISSOR_TEST: False,
        }
        self.viewport = (0, 0, 0, 0)
        self.scissor = (0, 0, 0, 0)
        self.clear_color = (0.0, 0.0, 0.0, 0.0)
        self.clear_depth = 1.0
        self.clear_stencil = 0
        self.blend_func = (gl.GL_ONE, gl.GL_ZERO)
        self.depth_func = gl.GL_LESS
        self.depth_mask = True
        self.color_mask = (True, True, True, True)
        self.cull_face_mode = 0x0405  # GL_BACK
        self.line_width = 1.0
        self.pixel_store: Dict[int, int] = {}

        # Statistics observable by tests and the GPU cost model.
        self.draw_calls = 0
        self.vertices_submitted = 0
        self.texture_bytes_uploaded = 0
        self.buffer_bytes_uploaded = 0

    # -- error handling -----------------------------------------------------

    def _set_error(self, code: int, message: str) -> None:
        if self.strict:
            raise GLError(code, message)
        if self.error == gl.GL_NO_ERROR:
            self.error = code

    def get_error(self) -> int:
        code, self.error = self.error, gl.GL_NO_ERROR
        return code

    # -- name allocation -----------------------------------------------------

    def _gen_names(self, n: int) -> List[int]:
        names = list(range(self._next_name, self._next_name + n))
        self._next_name += n
        return names

    # -- execution -----------------------------------------------------------

    def execute(self, cmd: GLCommand) -> Any:
        """Apply one command to the state machine; returns any query value."""
        handler = self._op_handlers.get(cmd.name)
        if handler is not None:
            return handler(self, *cmd.args)
        spec = command_spec(cmd.name)  # validates the name
        # Entry points with no state effect beyond validation (glFlush,
        # glValidateProgram, hints, ...) are accepted as no-ops.
        if spec.mutates_state:
            # A mutating command we do not model would silently desync
            # replicas; fail loudly instead.
            raise NotImplementedError(
                f"no state handler for mutating command {cmd.name}"
            )
        return None

    def execute_sequence(self, commands: List[GLCommand]) -> None:
        for cmd in commands:
            self.execute(cmd)

    # -- object lifecycle handlers -------------------------------------------

    def _op_glGenBuffers(self, n: int) -> List[int]:
        names = self._gen_names(n)
        for name in names:
            self.buffers[name] = BufferObject(name)
        return names

    def _op_glDeleteBuffers(self, n: int, buffers: Tuple[int, ...]) -> None:
        for name in buffers[:n]:
            self.buffers.pop(name, None)
            if self.bound_array_buffer == name:
                self.bound_array_buffer = 0
            if self.bound_element_buffer == name:
                self.bound_element_buffer = 0

    def _op_glGenTextures(self, n: int) -> List[int]:
        names = self._gen_names(n)
        for name in names:
            self.textures[name] = TextureObject(name)
        return names

    def _op_glDeleteTextures(self, n: int, textures: Tuple[int, ...]) -> None:
        for name in textures[:n]:
            self.textures.pop(name, None)
            for unit in self.texture_bindings:
                for target, bound in list(unit.items()):
                    if bound == name:
                        unit[target] = 0

    def _op_glGenFramebuffers(self, n: int) -> List[int]:
        names = self._gen_names(n)
        for name in names:
            self.framebuffers[name] = {}
        return names

    def _op_glDeleteFramebuffers(self, n: int, fbs: Tuple[int, ...]) -> None:
        for name in fbs[:n]:
            if name != 0:
                self.framebuffers.pop(name, None)
            if self.bound_framebuffer == name:
                self.bound_framebuffer = 0

    def _op_glGenRenderbuffers(self, n: int) -> List[int]:
        names = self._gen_names(n)
        for name in names:
            self.renderbuffers[name] = {}
        return names

    def _op_glDeleteRenderbuffers(self, n: int, rbs: Tuple[int, ...]) -> None:
        for name in rbs[:n]:
            self.renderbuffers.pop(name, None)

    def _op_glCreateShader(self, shader_type: int) -> int:
        if shader_type not in (gl.GL_VERTEX_SHADER, gl.GL_FRAGMENT_SHADER):
            self._set_error(gl.GL_INVALID_ENUM, "bad shader type")
            return 0
        (name,) = self._gen_names(1)
        self.shaders[name] = ShaderObject(name, shader_type)
        return name

    def _op_glDeleteShader(self, shader: int) -> None:
        self.shaders.pop(shader, None)

    def _op_glCreateProgram(self) -> int:
        (name,) = self._gen_names(1)
        self.programs[name] = ProgramObject(name)
        return name

    def _op_glDeleteProgram(self, program: int) -> None:
        self.programs.pop(program, None)
        if self.current_program == program:
            self.current_program = 0

    # -- shader handlers -----------------------------------------------------

    def _op_glShaderSource(self, shader: int, source: str) -> None:
        obj = self.shaders.get(shader)
        if obj is None:
            self._set_error(gl.GL_INVALID_VALUE, f"no shader {shader}")
            return
        obj.source = source
        obj.compiled = False

    def _op_glCompileShader(self, shader: int) -> None:
        obj = self.shaders.get(shader)
        if obj is None:
            self._set_error(gl.GL_INVALID_VALUE, f"no shader {shader}")
            return
        # The simulated "compiler" accepts any non-empty source that contains
        # a main() entry; this is enough for workloads to exercise the error
        # path deliberately.
        obj.compiled = bool(obj.source) and "main" in obj.source
        obj.info_log = "" if obj.compiled else "error: no main() entry point"

    def _op_glAttachShader(self, program: int, shader: int) -> None:
        prog = self.programs.get(program)
        if prog is None or shader not in self.shaders:
            self._set_error(gl.GL_INVALID_VALUE, "bad program/shader")
            return
        if shader in prog.shaders:
            self._set_error(gl.GL_INVALID_OPERATION, "shader already attached")
            return
        prog.shaders.append(shader)

    def _op_glDetachShader(self, program: int, shader: int) -> None:
        prog = self.programs.get(program)
        if prog is None or shader not in prog.shaders:
            self._set_error(gl.GL_INVALID_VALUE, "bad program/shader")
            return
        prog.shaders.remove(shader)

    def _op_glLinkProgram(self, program: int) -> None:
        prog = self.programs.get(program)
        if prog is None:
            self._set_error(gl.GL_INVALID_VALUE, f"no program {program}")
            return
        types = {
            self.shaders[s].shader_type
            for s in prog.shaders
            if s in self.shaders
        }
        compiled = all(
            self.shaders[s].compiled for s in prog.shaders if s in self.shaders
        )
        prog.linked = (
            gl.GL_VERTEX_SHADER in types
            and gl.GL_FRAGMENT_SHADER in types
            and compiled
        )

    def _op_glUseProgram(self, program: int) -> None:
        if program != 0 and program not in self.programs:
            self._set_error(gl.GL_INVALID_VALUE, f"no program {program}")
            return
        if program != 0 and not self.programs[program].linked:
            self._set_error(gl.GL_INVALID_OPERATION, "program not linked")
            return
        self.current_program = program

    def _op_glGetShaderiv(self, shader: int, pname: int) -> int:
        obj = self.shaders.get(shader)
        if obj is None:
            self._set_error(gl.GL_INVALID_VALUE, f"no shader {shader}")
            return 0
        if pname == gl.GL_COMPILE_STATUS:
            return int(obj.compiled)
        return 0

    def _op_glGetProgramiv(self, program: int, pname: int) -> int:
        prog = self.programs.get(program)
        if prog is None:
            self._set_error(gl.GL_INVALID_VALUE, f"no program {program}")
            return 0
        if pname == gl.GL_LINK_STATUS:
            return int(prog.linked)
        return 0

    def _op_glGetShaderInfoLog(self, shader: int) -> str:
        obj = self.shaders.get(shader)
        return obj.info_log if obj else ""

    def _op_glBindAttribLocation(
        self, program: int, index: int, name: str
    ) -> None:
        prog = self.programs.get(program)
        if prog is None:
            self._set_error(gl.GL_INVALID_VALUE, f"no program {program}")
            return
        prog.attrib_locations[name] = index

    def _op_glGetAttribLocation(self, program: int, name: str) -> int:
        prog = self.programs.get(program)
        if prog is None or not prog.linked:
            return -1
        if name not in prog.attrib_locations:
            prog.attrib_locations[name] = len(prog.attrib_locations)
        return prog.attrib_locations[name]

    def _op_glGetUniformLocation(self, program: int, name: str) -> int:
        prog = self.programs.get(program)
        if prog is None or not prog.linked:
            return -1
        if name not in prog.uniform_locations:
            prog.uniform_locations[name] = prog._next_uniform
            prog._next_uniform += 1
        return prog.uniform_locations[name]

    # -- buffer handlers ------------------------------------------------------

    def _binding_for_target(self, target: int) -> Optional[int]:
        if target == gl.GL_ARRAY_BUFFER:
            return self.bound_array_buffer
        if target == gl.GL_ELEMENT_ARRAY_BUFFER:
            return self.bound_element_buffer
        return None

    def _op_glBindBuffer(self, target: int, buffer: int) -> None:
        if buffer != 0 and buffer not in self.buffers:
            # ES 2.0 allows binding unseen names: they spring into existence.
            self.buffers[buffer] = BufferObject(buffer)
        if target == gl.GL_ARRAY_BUFFER:
            self.bound_array_buffer = buffer
        elif target == gl.GL_ELEMENT_ARRAY_BUFFER:
            self.bound_element_buffer = buffer
        else:
            self._set_error(gl.GL_INVALID_ENUM, f"bad buffer target {target}")

    def _op_glBufferData(
        self, target: int, size: int, data: Any, usage: int
    ) -> None:
        bound = self._binding_for_target(target)
        if bound is None:
            self._set_error(gl.GL_INVALID_ENUM, f"bad buffer target {target}")
            return
        if bound == 0:
            self._set_error(gl.GL_INVALID_OPERATION, "no buffer bound")
            return
        if size < 0:
            self._set_error(gl.GL_INVALID_VALUE, f"negative size {size}")
            return
        obj = self.buffers[bound]
        obj.target = target
        obj.size = size
        obj.usage = usage
        obj.data = bytes(data[:size]) if data is not None else bytes(size)
        self.buffer_bytes_uploaded += size

    def _op_glBufferSubData(
        self, target: int, offset: int, size: int, data: Any
    ) -> None:
        bound = self._binding_for_target(target)
        if bound is None or bound == 0:
            self._set_error(gl.GL_INVALID_OPERATION, "no buffer bound")
            return
        obj = self.buffers[bound]
        if offset < 0 or size < 0 or offset + size > obj.size:
            self._set_error(gl.GL_INVALID_VALUE, "range outside buffer store")
            return
        payload = bytes(data[:size]) if data is not None else bytes(size)
        obj.data = obj.data[:offset] + payload + obj.data[offset + size:]
        self.buffer_bytes_uploaded += size

    # -- texture handlers --------------------------------------------------------

    def _op_glActiveTexture(self, texture: int) -> None:
        unit = texture - gl.GL_TEXTURE0
        if not 0 <= unit < MAX_TEXTURE_UNITS:
            self._set_error(gl.GL_INVALID_ENUM, f"bad texture unit {unit}")
            return
        self.active_texture_unit = unit

    def _op_glBindTexture(self, target: int, texture: int) -> None:
        if target not in (gl.GL_TEXTURE_2D, gl.GL_TEXTURE_CUBE_MAP):
            self._set_error(gl.GL_INVALID_ENUM, f"bad texture target {target}")
            return
        if texture != 0 and texture not in self.textures:
            self.textures[texture] = TextureObject(texture)
        if texture != 0:
            self.textures[texture].target = target
        self.texture_bindings[self.active_texture_unit][target] = texture

    def _bound_texture(self, target: int) -> Optional[TextureObject]:
        name = self.texture_bindings[self.active_texture_unit].get(target, 0)
        return self.textures.get(name)

    def _op_glTexImage2D(
        self,
        target: int,
        level: int,
        internalformat: int,
        width: int,
        height: int,
        border: int,
        fmt: int,
        dtype: int,
        pixels: Any,
    ) -> None:
        tex = self._bound_texture(target)
        if tex is None:
            self._set_error(gl.GL_INVALID_OPERATION, "no texture bound")
            return
        if width < 0 or height < 0 or border != 0:
            self._set_error(gl.GL_INVALID_VALUE, "bad texture dimensions")
            return
        channels = gl.FORMAT_CHANNELS.get(fmt, 4)
        nbytes = width * height * channels
        if level == 0:
            tex.width, tex.height, tex.fmt = width, height, fmt
        tex.levels = max(tex.levels, level + 1)
        tex.byte_size += nbytes
        self.texture_bytes_uploaded += nbytes

    def _op_glTexSubImage2D(
        self,
        target: int,
        level: int,
        xoffset: int,
        yoffset: int,
        width: int,
        height: int,
        fmt: int,
        dtype: int,
        pixels: Any,
    ) -> None:
        tex = self._bound_texture(target)
        if tex is None:
            self._set_error(gl.GL_INVALID_OPERATION, "no texture bound")
            return
        if xoffset + width > tex.width or yoffset + height > tex.height:
            self._set_error(gl.GL_INVALID_VALUE, "subimage outside texture")
            return
        channels = gl.FORMAT_CHANNELS.get(fmt, 4)
        self.texture_bytes_uploaded += width * height * channels

    def _op_glCompressedTexImage2D(
        self,
        target: int,
        level: int,
        internalformat: int,
        width: int,
        height: int,
        border: int,
        image_size: int,
        data: Any,
    ) -> None:
        tex = self._bound_texture(target)
        if tex is None:
            self._set_error(gl.GL_INVALID_OPERATION, "no texture bound")
            return
        if level == 0:
            tex.width, tex.height = width, height
        tex.byte_size += image_size
        self.texture_bytes_uploaded += image_size

    def _op_glTexParameteri(self, target: int, pname: int, param: int) -> None:
        tex = self._bound_texture(target)
        if tex is None:
            self._set_error(gl.GL_INVALID_OPERATION, "no texture bound")
            return
        tex.params[pname] = param

    def _op_glTexParameterf(self, target: int, pname: int, param: float) -> None:
        self._op_glTexParameteri(target, pname, param)

    def _op_glGenerateMipmap(self, target: int) -> None:
        tex = self._bound_texture(target)
        if tex is None:
            self._set_error(gl.GL_INVALID_OPERATION, "no texture bound")
            return
        side = max(tex.width, tex.height, 1)
        tex.levels = side.bit_length()

    def _op_glPixelStorei(self, pname: int, param: int) -> None:
        self.pixel_store[pname] = param

    # -- vertex attribute handlers ---------------------------------------------

    def _check_attrib_index(self, index: int) -> bool:
        if not 0 <= index < MAX_VERTEX_ATTRIBS:
            self._set_error(gl.GL_INVALID_VALUE, f"attrib index {index}")
            return False
        return True

    def _op_glEnableVertexAttribArray(self, index: int) -> None:
        if self._check_attrib_index(index):
            self.vertex_attribs[index].enabled = True

    def _op_glDisableVertexAttribArray(self, index: int) -> None:
        if self._check_attrib_index(index):
            self.vertex_attribs[index].enabled = False

    def _op_glVertexAttribPointer(
        self,
        index: int,
        size: int,
        dtype: int,
        normalized: bool,
        stride: int,
        pointer: Any,
    ) -> None:
        if not self._check_attrib_index(index):
            return
        if size not in (1, 2, 3, 4):
            self._set_error(gl.GL_INVALID_VALUE, f"attrib size {size}")
            return
        attrib = self.vertex_attribs[index]
        attrib.size = size
        attrib.dtype = dtype
        attrib.normalized = bool(normalized)
        attrib.stride = stride
        attrib.pointer = pointer
        attrib.buffer_binding = self.bound_array_buffer

    def _op_glVertexAttrib1f(self, index: int, x: float) -> None:
        if self._check_attrib_index(index):
            self.vertex_attribs[index].generic_value = (x, 0.0, 0.0, 1.0)

    def _op_glVertexAttrib2f(self, index: int, x: float, y: float) -> None:
        if self._check_attrib_index(index):
            self.vertex_attribs[index].generic_value = (x, y, 0.0, 1.0)

    def _op_glVertexAttrib3f(
        self, index: int, x: float, y: float, z: float
    ) -> None:
        if self._check_attrib_index(index):
            self.vertex_attribs[index].generic_value = (x, y, z, 1.0)

    def _op_glVertexAttrib4f(
        self, index: int, x: float, y: float, z: float, w: float
    ) -> None:
        if self._check_attrib_index(index):
            self.vertex_attribs[index].generic_value = (x, y, z, w)

    # -- uniform handlers ----------------------------------------------------------

    def _set_uniform(self, location: int, value: Tuple[Any, ...]) -> None:
        if self.current_program == 0:
            self._set_error(gl.GL_INVALID_OPERATION, "no program in use")
            return
        if location < 0:
            return  # silently ignored, as per spec
        self.programs[self.current_program].uniforms[location] = value

    def _op_glUniform1i(self, location: int, v0: int) -> None:
        self._set_uniform(location, (v0,))

    def _op_glUniform2i(self, location: int, v0: int, v1: int) -> None:
        self._set_uniform(location, (v0, v1))

    def _op_glUniform1f(self, location: int, v0: float) -> None:
        self._set_uniform(location, (v0,))

    def _op_glUniform2f(self, location: int, v0: float, v1: float) -> None:
        self._set_uniform(location, (v0, v1))

    def _op_glUniform3f(
        self, location: int, v0: float, v1: float, v2: float
    ) -> None:
        self._set_uniform(location, (v0, v1, v2))

    def _op_glUniform4f(
        self, location: int, v0: float, v1: float, v2: float, v3: float
    ) -> None:
        self._set_uniform(location, (v0, v1, v2, v3))

    def _op_glUniform1fv(self, location: int, count: int, value: Any) -> None:
        self._set_uniform(location, tuple(value[:count]))

    def _op_glUniform2fv(self, location: int, count: int, value: Any) -> None:
        self._set_uniform(location, tuple(value[: 2 * count]))

    def _op_glUniform3fv(self, location: int, count: int, value: Any) -> None:
        self._set_uniform(location, tuple(value[: 3 * count]))

    def _op_glUniform4fv(self, location: int, count: int, value: Any) -> None:
        self._set_uniform(location, tuple(value[: 4 * count]))

    def _op_glUniformMatrix2fv(
        self, location: int, count: int, transpose: bool, value: Any
    ) -> None:
        self._set_uniform(location, tuple(value[: 4 * count]))

    def _op_glUniformMatrix3fv(
        self, location: int, count: int, transpose: bool, value: Any
    ) -> None:
        self._set_uniform(location, tuple(value[: 9 * count]))

    def _op_glUniformMatrix4fv(
        self, location: int, count: int, transpose: bool, value: Any
    ) -> None:
        self._set_uniform(location, tuple(value[: 16 * count]))

    # -- fixed-function state handlers -----------------------------------------------

    def _op_glEnable(self, cap: int) -> None:
        if cap not in self.capabilities:
            self._set_error(gl.GL_INVALID_ENUM, f"bad capability {cap}")
            return
        self.capabilities[cap] = True

    def _op_glDisable(self, cap: int) -> None:
        if cap not in self.capabilities:
            self._set_error(gl.GL_INVALID_ENUM, f"bad capability {cap}")
            return
        self.capabilities[cap] = False

    def _op_glBlendFunc(self, sfactor: int, dfactor: int) -> None:
        self.blend_func = (sfactor, dfactor)

    def _op_glBlendEquation(self, mode: int) -> None:
        pass

    def _op_glDepthFunc(self, func: int) -> None:
        self.depth_func = func

    def _op_glDepthMask(self, flag: bool) -> None:
        self.depth_mask = bool(flag)

    def _op_glDepthRangef(self, near: float, far: float) -> None:
        pass

    def _op_glCullFace(self, mode: int) -> None:
        self.cull_face_mode = mode

    def _op_glFrontFace(self, mode: int) -> None:
        pass

    def _op_glViewport(self, x: int, y: int, width: int, height: int) -> None:
        if width < 0 or height < 0:
            self._set_error(gl.GL_INVALID_VALUE, "negative viewport")
            return
        self.viewport = (x, y, width, height)

    def _op_glScissor(self, x: int, y: int, width: int, height: int) -> None:
        self.scissor = (x, y, width, height)

    def _op_glClearColor(
        self, red: float, green: float, blue: float, alpha: float
    ) -> None:
        clamp = lambda v: min(1.0, max(0.0, v))  # noqa: E731
        self.clear_color = (clamp(red), clamp(green), clamp(blue), clamp(alpha))

    def _op_glClearDepthf(self, depth: float) -> None:
        self.clear_depth = min(1.0, max(0.0, depth))

    def _op_glClearStencil(self, s: int) -> None:
        self.clear_stencil = s

    def _op_glColorMask(self, r: bool, g: bool, b: bool, a: bool) -> None:
        self.color_mask = (bool(r), bool(g), bool(b), bool(a))

    def _op_glStencilFunc(self, func: int, ref: int, mask: int) -> None:
        pass

    def _op_glStencilOp(self, fail: int, zfail: int, zpass: int) -> None:
        pass

    def _op_glStencilMask(self, mask: int) -> None:
        pass

    def _op_glLineWidth(self, width: float) -> None:
        if width <= 0:
            self._set_error(gl.GL_INVALID_VALUE, f"line width {width}")
            return
        self.line_width = width

    def _op_glPolygonOffset(self, factor: float, units: float) -> None:
        pass

    def _op_glSampleCoverage(self, value: float, invert: bool) -> None:
        pass

    def _op_glHint(self, target: int, mode: int) -> None:
        pass

    # -- framebuffer handlers --------------------------------------------------------

    def _op_glBindFramebuffer(self, target: int, framebuffer: int) -> None:
        if framebuffer != 0 and framebuffer not in self.framebuffers:
            self.framebuffers[framebuffer] = {}
        self.bound_framebuffer = framebuffer

    def _op_glBindRenderbuffer(self, target: int, renderbuffer: int) -> None:
        if renderbuffer != 0 and renderbuffer not in self.renderbuffers:
            self.renderbuffers[renderbuffer] = {}
        self.bound_renderbuffer = renderbuffer

    def _op_glFramebufferTexture2D(
        self,
        target: int,
        attachment: int,
        textarget: int,
        texture: int,
        level: int,
    ) -> None:
        self.framebuffers.setdefault(self.bound_framebuffer, {})[attachment] = (
            "texture",
            texture,
            level,
        )

    def _op_glFramebufferRenderbuffer(
        self, target: int, attachment: int, rbtarget: int, renderbuffer: int
    ) -> None:
        self.framebuffers.setdefault(self.bound_framebuffer, {})[attachment] = (
            "renderbuffer",
            renderbuffer,
        )

    def _op_glRenderbufferStorage(
        self, target: int, internalformat: int, width: int, height: int
    ) -> None:
        self.renderbuffers.setdefault(self.bound_renderbuffer, {}).update(
            {"width": width, "height": height, "format": internalformat}
        )

    def _op_glCheckFramebufferStatus(self, target: int) -> int:
        return gl.GL_FRAMEBUFFER_COMPLETE

    # -- drawing handlers ---------------------------------------------------------------

    def _validate_draw(self) -> bool:
        if self.current_program == 0:
            self._set_error(gl.GL_INVALID_OPERATION, "draw with no program")
            return False
        return True

    def _op_glClear(self, mask: int) -> None:
        self.draw_calls += 1

    def _op_glDrawArrays(self, mode: int, first: int, count: int) -> None:
        if count < 0 or first < 0:
            self._set_error(gl.GL_INVALID_VALUE, "negative draw range")
            return
        if not self._validate_draw():
            return
        self.draw_calls += 1
        self.vertices_submitted += count

    def _op_glDrawElements(
        self, mode: int, count: int, dtype: int, indices: Any
    ) -> None:
        if count < 0:
            self._set_error(gl.GL_INVALID_VALUE, "negative index count")
            return
        if not self._validate_draw():
            return
        self.draw_calls += 1
        self.vertices_submitted += count

    # -- queries ---------------------------------------------------------------------------

    def _op_glGetError(self) -> int:
        return self.get_error()

    def _op_glGetString(self, name: int) -> str:
        strings = {
            gl.GL_VENDOR: "GBooster Reproduction",
            gl.GL_RENDERER: "Simulated ES2 Rasterizer",
            gl.GL_VERSION: "OpenGL ES 2.0 (simulated)",
            gl.GL_EXTENSIONS: "",
        }
        return strings.get(name, "")

    def _op_glIsEnabled(self, cap: int) -> bool:
        return self.capabilities.get(cap, False)

    def _op_glIsBuffer(self, buffer: int) -> bool:
        return buffer in self.buffers

    def _op_glIsTexture(self, texture: int) -> bool:
        return texture in self.textures

    def _op_glIsProgram(self, program: int) -> bool:
        return program in self.programs

    def _op_glIsShader(self, shader: int) -> bool:
        return shader in self.shaders

    # -- consistency digest -------------------------------------------------------------------

    def state_digest(self) -> str:
        """A stable hash over all replicable context state.

        Two service devices that received the same state-mutating command
        prefix must produce identical digests (§VI-B); the dispatch tests
        assert this.
        """
        h = hashlib.sha256()

        def norm(part: Any) -> Any:
            # GL hands floats to the GPU as float32; canonicalize so a
            # context fed through the (float32) wire format digests equal
            # to one fed Python doubles directly.
            if isinstance(part, float):
                import struct as _struct

                return _struct.unpack("<f", _struct.pack("<f", part))[0]
            if isinstance(part, (tuple, list)):
                return tuple(norm(p) for p in part)
            return part

        def put(*parts: Any) -> None:
            for part in parts:
                h.update(repr(norm(part)).encode("utf-8"))

        for name in sorted(self.buffers):
            b = self.buffers[name]
            put("buf", name, b.target, b.size, b.usage, b.data)
        for name in sorted(self.textures):
            t = self.textures[name]
            put("tex", name, t.target, t.width, t.height, t.fmt, t.levels,
                sorted(t.params.items()), t.byte_size)
        for name in sorted(self.shaders):
            s = self.shaders[name]
            put("shader", name, s.shader_type, s.source, s.compiled)
        for name in sorted(self.programs):
            p = self.programs[name]
            put("prog", name, sorted(p.shaders), p.linked,
                sorted(p.attrib_locations.items()),
                sorted(p.uniform_locations.items()),
                sorted(p.uniforms.items()))
        put("bind", self.bound_array_buffer, self.bound_element_buffer,
            self.bound_framebuffer, self.active_texture_unit,
            self.current_program)
        for unit in self.texture_bindings:
            put(sorted(unit.items()))
        for a in self.vertex_attribs:
            put(a.enabled, a.size, a.dtype, a.normalized, a.stride,
                a.buffer_binding, a.generic_value)
        put("caps", sorted(self.capabilities.items()))
        put("raster", self.viewport, self.scissor, self.clear_color,
            self.clear_depth, self.clear_stencil, self.blend_func,
            self.depth_func, self.depth_mask, self.color_mask,
            self.cull_face_mode, self.line_width)
        return h.hexdigest()


GLContext._op_handlers = _op_table(GLContext)
