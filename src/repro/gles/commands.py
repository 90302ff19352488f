"""The OpenGL ES 2.0 entry-point registry and command objects.

A :class:`GLCommand` is one intercepted call: a name plus concrete argument
values.  The :class:`CommandSpec` registry describes each entry point's
typed signature and the properties GBooster's machinery keys off:

* ``mutates_state`` — whether the call alters the GL context; such commands
  must be replicated to every service device to keep contexts consistent
  (paper §VI-B).
* ``is_draw`` — whether the call consumes buffered vertex-attribute pointers
  and performs rasterization work (drives the deferred-pointer flush of
  §IV-B and the GPU cost model).
* ``param`` kinds — in particular :attr:`ParamType.DEFERRED_POINTER` for
  ``glVertexAttribPointer``, whose payload length is unknown at intercept
  time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple


class ParamType(enum.Enum):
    """Wire-level classification of a GL parameter."""

    INT = "int"              # 32-bit signed integer (also GLsizei, offsets)
    FLOAT = "float"          # 32-bit float
    ENUM = "enum"            # GLenum, serialized as uint32
    BOOL = "bool"            # GLboolean
    STRING = "string"        # NUL-terminated string (shader source, names)
    BLOB = "blob"            # pointer whose byte length is known at call time
    DEFERRED_POINTER = "deferred_pointer"  # length known only at draw time
    INT_ARRAY = "int_array"  # small fixed array of ints
    FLOAT_ARRAY = "float_array"  # small fixed array of floats


@dataclass(frozen=True)
class ParamSpec:
    """One parameter of an entry point."""

    name: str
    kind: ParamType


@dataclass(frozen=True)
class CommandSpec:
    """Static description of one GL ES entry point."""

    name: str
    params: Tuple[ParamSpec, ...]
    mutates_state: bool = False
    is_draw: bool = False
    creates_object: bool = False
    returns_value: bool = False

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class GLCommand:
    """A concrete intercepted call: entry point name + argument values.

    ``metadata`` carries simulation-side annotations that a real intercept
    layer would not see (e.g. the pixel coverage a draw will produce); the
    serializer never puts metadata on the wire.

    A command is an immutable value once issued: its fields cannot be
    reassigned, and its arguments must not be mutated in place, because
    the cache key and the check digest's fragment are computed once per
    object, and the egress pipeline recognises a repeated frame by the
    identity of its commands.
    """

    name: str
    args: Tuple[Any, ...] = ()
    metadata: Dict[str, Any] = field(default_factory=dict)
    _key: Optional[Tuple[str, Tuple[Any, ...]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: the bytes this command adds to a check digest, filled on first
    #: use by :func:`repro.check.digest.command_fragment`
    _fragment: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def spec(self) -> CommandSpec:
        return command_spec(self.name)

    def key(self) -> Tuple[str, Tuple[Any, ...]]:
        """Hashable identity used by the LRU command cache (§V-A).

        Computed on first use and kept with the command.  A flat argument
        tuple with no negative zero is its own key form, so it is used as
        is; see :func:`_key_form` for the rest.
        """
        key = self._key
        if key is None:
            key = (self.name, _key_args(self.args))
            object.__setattr__(self, "_key", key)
        return key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GLCommand({self.name}, args={self.args!r})"


class _NegativeZero:
    """Stands for a float ``-0.0`` inside a cache key.

    ``-0.0 == 0.0`` and both hash alike, so a key holding the float
    would share an entry with its positive twin although the two
    serialize differently.  This singleton equals only itself; its
    ``repr`` is the float's, so every key digest is unchanged, and
    ``float()`` of it is ``-0.0``, so a key still serializes.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "-0.0"

    def __float__(self) -> float:
        return -0.0

    def __reduce__(self) -> str:
        return "NEGATIVE_ZERO"


NEGATIVE_ZERO = _NegativeZero()

_NESTED = (list, tuple, bytearray)
#: argument types that are their own key form
_SCALARS = frozenset((int, bool, str, bytes, type(None)))


def _is_negative_zero(value: Any) -> bool:
    return (
        isinstance(value, float)
        and value == 0.0
        and math.copysign(1.0, value) < 0.0
    )


def _key_args(args: Any) -> Tuple[Any, ...]:
    if type(args) is tuple and (
        _SCALARS.issuperset(map(type, args))
        or not any(
            isinstance(v, _NESTED) or _is_negative_zero(v) for v in args
        )
    ):
        return args
    return _key_form(args)


def _key_form(value: Any) -> Any:
    """:func:`_freeze`, with every negative zero made :data:`NEGATIVE_ZERO`.

    The ``repr`` of a key holding no negative zero is unchanged.
    """
    if isinstance(value, (list, tuple)):
        return tuple([_key_form(v) for v in value])
    if isinstance(value, bytearray):
        return bytes(value)
    if _is_negative_zero(value):
        return NEGATIVE_ZERO
    return value


def _freeze(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        for v in value:
            if isinstance(v, _NESTED):
                return tuple(
                    _freeze(v) if isinstance(v, _NESTED) else v for v in value
                )
        # Flat: a plain tuple is already frozen; anything else (a list, a
        # named tuple) becomes the plain tuple of its items.
        return value if type(value) is tuple else tuple(value)
    if isinstance(value, bytearray):
        return bytes(value)
    return value


def _p(name: str, kind: ParamType) -> ParamSpec:
    return ParamSpec(name, kind)


I, F, E, B, S = (
    ParamType.INT,
    ParamType.FLOAT,
    ParamType.ENUM,
    ParamType.BOOL,
    ParamType.STRING,
)
BLOB = ParamType.BLOB
DEFER = ParamType.DEFERRED_POINTER
IA, FA = ParamType.INT_ARRAY, ParamType.FLOAT_ARRAY


def _spec(
    name: str,
    *params: Tuple[str, ParamType],
    mutates_state: bool = False,
    is_draw: bool = False,
    creates_object: bool = False,
    returns_value: bool = False,
) -> CommandSpec:
    return CommandSpec(
        name=name,
        params=tuple(_p(n, k) for n, k in params),
        mutates_state=mutates_state,
        is_draw=is_draw,
        creates_object=creates_object,
        returns_value=returns_value,
    )


_SPECS = [
    # -- object lifecycle -------------------------------------------------
    _spec("glGenBuffers", ("n", I), mutates_state=True, creates_object=True,
          returns_value=True),
    _spec("glDeleteBuffers", ("n", I), ("buffers", IA), mutates_state=True),
    _spec("glGenTextures", ("n", I), mutates_state=True, creates_object=True,
          returns_value=True),
    _spec("glDeleteTextures", ("n", I), ("textures", IA), mutates_state=True),
    _spec("glGenFramebuffers", ("n", I), mutates_state=True,
          creates_object=True, returns_value=True),
    _spec("glDeleteFramebuffers", ("n", I), ("framebuffers", IA),
          mutates_state=True),
    _spec("glGenRenderbuffers", ("n", I), mutates_state=True,
          creates_object=True, returns_value=True),
    _spec("glDeleteRenderbuffers", ("n", I), ("renderbuffers", IA),
          mutates_state=True),
    _spec("glCreateShader", ("type", E), mutates_state=True,
          creates_object=True, returns_value=True),
    _spec("glDeleteShader", ("shader", I), mutates_state=True),
    _spec("glCreateProgram", mutates_state=True, creates_object=True,
          returns_value=True),
    _spec("glDeleteProgram", ("program", I), mutates_state=True),
    # -- shader compilation -------------------------------------------------
    _spec("glShaderSource", ("shader", I), ("source", S), mutates_state=True),
    _spec("glCompileShader", ("shader", I), mutates_state=True),
    _spec("glAttachShader", ("program", I), ("shader", I), mutates_state=True),
    _spec("glDetachShader", ("program", I), ("shader", I), mutates_state=True),
    _spec("glLinkProgram", ("program", I), mutates_state=True),
    _spec("glUseProgram", ("program", I), mutates_state=True),
    _spec("glValidateProgram", ("program", I)),
    _spec("glGetShaderiv", ("shader", I), ("pname", E), returns_value=True),
    _spec("glGetProgramiv", ("program", I), ("pname", E), returns_value=True),
    _spec("glGetShaderInfoLog", ("shader", I), returns_value=True),
    _spec("glGetProgramInfoLog", ("program", I), returns_value=True),
    _spec("glBindAttribLocation", ("program", I), ("index", I), ("name", S),
          mutates_state=True),
    _spec("glGetAttribLocation", ("program", I), ("name", S),
          returns_value=True),
    _spec("glGetUniformLocation", ("program", I), ("name", S),
          returns_value=True),
    # -- buffers --------------------------------------------------------------
    _spec("glBindBuffer", ("target", E), ("buffer", I), mutates_state=True),
    _spec("glBufferData", ("target", E), ("size", I), ("data", BLOB),
          ("usage", E), mutates_state=True),
    _spec("glBufferSubData", ("target", E), ("offset", I), ("size", I),
          ("data", BLOB), mutates_state=True),
    # -- textures --------------------------------------------------------------
    _spec("glActiveTexture", ("texture", E), mutates_state=True),
    _spec("glBindTexture", ("target", E), ("texture", I), mutates_state=True),
    _spec("glTexImage2D", ("target", E), ("level", I), ("internalformat", E),
          ("width", I), ("height", I), ("border", I), ("format", E),
          ("type", E), ("pixels", BLOB), mutates_state=True),
    _spec("glTexSubImage2D", ("target", E), ("level", I), ("xoffset", I),
          ("yoffset", I), ("width", I), ("height", I), ("format", E),
          ("type", E), ("pixels", BLOB), mutates_state=True),
    _spec("glCompressedTexImage2D", ("target", E), ("level", I),
          ("internalformat", E), ("width", I), ("height", I), ("border", I),
          ("imageSize", I), ("data", BLOB), mutates_state=True),
    _spec("glTexParameteri", ("target", E), ("pname", E), ("param", I),
          mutates_state=True),
    _spec("glTexParameterf", ("target", E), ("pname", E), ("param", F),
          mutates_state=True),
    _spec("glGenerateMipmap", ("target", E), mutates_state=True),
    _spec("glPixelStorei", ("pname", E), ("param", I), mutates_state=True),
    # -- vertex attributes ------------------------------------------------------
    _spec("glEnableVertexAttribArray", ("index", I), mutates_state=True),
    _spec("glDisableVertexAttribArray", ("index", I), mutates_state=True),
    _spec("glVertexAttribPointer", ("index", I), ("size", I), ("type", E),
          ("normalized", B), ("stride", I), ("pointer", DEFER),
          mutates_state=True),
    _spec("glVertexAttrib1f", ("index", I), ("x", F), mutates_state=True),
    _spec("glVertexAttrib2f", ("index", I), ("x", F), ("y", F),
          mutates_state=True),
    _spec("glVertexAttrib3f", ("index", I), ("x", F), ("y", F), ("z", F),
          mutates_state=True),
    _spec("glVertexAttrib4f", ("index", I), ("x", F), ("y", F), ("z", F),
          ("w", F), mutates_state=True),
    # -- uniforms -----------------------------------------------------------------
    _spec("glUniform1i", ("location", I), ("v0", I), mutates_state=True),
    _spec("glUniform2i", ("location", I), ("v0", I), ("v1", I),
          mutates_state=True),
    _spec("glUniform1f", ("location", I), ("v0", F), mutates_state=True),
    _spec("glUniform2f", ("location", I), ("v0", F), ("v1", F),
          mutates_state=True),
    _spec("glUniform3f", ("location", I), ("v0", F), ("v1", F), ("v2", F),
          mutates_state=True),
    _spec("glUniform4f", ("location", I), ("v0", F), ("v1", F), ("v2", F),
          ("v3", F), mutates_state=True),
    _spec("glUniform1fv", ("location", I), ("count", I), ("value", FA),
          mutates_state=True),
    _spec("glUniform2fv", ("location", I), ("count", I), ("value", FA),
          mutates_state=True),
    _spec("glUniform3fv", ("location", I), ("count", I), ("value", FA),
          mutates_state=True),
    _spec("glUniform4fv", ("location", I), ("count", I), ("value", FA),
          mutates_state=True),
    _spec("glUniformMatrix2fv", ("location", I), ("count", I),
          ("transpose", B), ("value", FA), mutates_state=True),
    _spec("glUniformMatrix3fv", ("location", I), ("count", I),
          ("transpose", B), ("value", FA), mutates_state=True),
    _spec("glUniformMatrix4fv", ("location", I), ("count", I),
          ("transpose", B), ("value", FA), mutates_state=True),
    # -- fixed-function state ------------------------------------------------------
    _spec("glEnable", ("cap", E), mutates_state=True),
    _spec("glDisable", ("cap", E), mutates_state=True),
    _spec("glBlendFunc", ("sfactor", E), ("dfactor", E), mutates_state=True),
    _spec("glBlendEquation", ("mode", E), mutates_state=True),
    _spec("glDepthFunc", ("func", E), mutates_state=True),
    _spec("glDepthMask", ("flag", B), mutates_state=True),
    _spec("glDepthRangef", ("near", F), ("far", F), mutates_state=True),
    _spec("glCullFace", ("mode", E), mutates_state=True),
    _spec("glFrontFace", ("mode", E), mutates_state=True),
    _spec("glViewport", ("x", I), ("y", I), ("width", I), ("height", I),
          mutates_state=True),
    _spec("glScissor", ("x", I), ("y", I), ("width", I), ("height", I),
          mutates_state=True),
    _spec("glClearColor", ("red", F), ("green", F), ("blue", F),
          ("alpha", F), mutates_state=True),
    _spec("glClearDepthf", ("depth", F), mutates_state=True),
    _spec("glClearStencil", ("s", I), mutates_state=True),
    _spec("glColorMask", ("red", B), ("green", B), ("blue", B), ("alpha", B),
          mutates_state=True),
    _spec("glStencilFunc", ("func", E), ("ref", I), ("mask", I),
          mutates_state=True),
    _spec("glStencilOp", ("fail", E), ("zfail", E), ("zpass", E),
          mutates_state=True),
    _spec("glStencilMask", ("mask", I), mutates_state=True),
    _spec("glLineWidth", ("width", F), mutates_state=True),
    _spec("glPolygonOffset", ("factor", F), ("units", F), mutates_state=True),
    _spec("glSampleCoverage", ("value", F), ("invert", B), mutates_state=True),
    # -- framebuffers ----------------------------------------------------------------
    _spec("glBindFramebuffer", ("target", E), ("framebuffer", I),
          mutates_state=True),
    _spec("glBindRenderbuffer", ("target", E), ("renderbuffer", I),
          mutates_state=True),
    _spec("glFramebufferTexture2D", ("target", E), ("attachment", E),
          ("textarget", E), ("texture", I), ("level", I), mutates_state=True),
    _spec("glFramebufferRenderbuffer", ("target", E), ("attachment", E),
          ("renderbuffertarget", E), ("renderbuffer", I), mutates_state=True),
    _spec("glRenderbufferStorage", ("target", E), ("internalformat", E),
          ("width", I), ("height", I), mutates_state=True),
    _spec("glCheckFramebufferStatus", ("target", E), returns_value=True),
    # -- drawing ------------------------------------------------------------------------
    _spec("glClear", ("mask", E), is_draw=True),
    _spec("glDrawArrays", ("mode", E), ("first", I), ("count", I),
          is_draw=True),
    _spec("glDrawElements", ("mode", E), ("count", I), ("type", E),
          ("indices", BLOB), is_draw=True),
    # -- queries / sync -----------------------------------------------------------------
    _spec("glGetError", returns_value=True),
    _spec("glGetString", ("name", E), returns_value=True),
    _spec("glGetIntegerv", ("pname", E), returns_value=True),
    _spec("glGetFloatv", ("pname", E), returns_value=True),
    _spec("glGetBooleanv", ("pname", E), returns_value=True),
    _spec("glIsEnabled", ("cap", E), returns_value=True),
    _spec("glIsBuffer", ("buffer", I), returns_value=True),
    _spec("glIsTexture", ("texture", I), returns_value=True),
    _spec("glIsProgram", ("program", I), returns_value=True),
    _spec("glIsShader", ("shader", I), returns_value=True),
    _spec("glReadPixels", ("x", I), ("y", I), ("width", I), ("height", I),
          ("format", E), ("type", E), returns_value=True),
    _spec("glFlush"),
    _spec("glFinish"),
    _spec("glHint", ("target", E), ("mode", E), mutates_state=True),
]

COMMANDS: Dict[str, CommandSpec] = {spec.name: spec for spec in _SPECS}

# EGL entry points that the wrapper also interposes (§IV-A, §IV-C).
EGL_COMMANDS = (
    "eglSwapBuffers",
    "eglGetProcAddress",
    "eglMakeCurrent",
    "eglCreateWindowSurface",
    "eglDestroySurface",
)


def command_spec(name: str) -> CommandSpec:
    """Look up a spec; raises ``KeyError`` with a helpful message."""
    try:
        return COMMANDS[name]
    except KeyError:
        raise KeyError(
            f"{name!r} is not a registered OpenGL ES 2.0 entry point"
        ) from None


def make_command(
    name: str, *args: Any, metadata: Optional[Dict[str, Any]] = None
) -> GLCommand:
    """Build a validated :class:`GLCommand`.

    Argument count must match the spec's arity; kinds are validated at
    serialization time where the wire format needs them.
    """
    spec = COMMANDS.get(name)
    if spec is None or len(args) != len(spec.params):
        spec = command_spec(name)
        raise TypeError(
            f"{name} expects {spec.arity} arguments "
            f"({', '.join(p.name for p in spec.params)}), got {len(args)}"
        )
    if metadata is None:
        return GLCommand(name, args)
    return GLCommand(name, args, dict(metadata))


def state_mutating_names() -> Tuple[str, ...]:
    """Names of all entry points flagged as state-mutating (§VI-B)."""
    return tuple(sorted(n for n, s in COMMANDS.items() if s.mutates_state))


def draw_names() -> Tuple[str, ...]:
    return tuple(sorted(n for n, s in COMMANDS.items() if s.is_draw))
