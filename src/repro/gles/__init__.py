"""Simulated OpenGL ES 2.0 substrate.

GBooster never looks *inside* the GPU: it observes the OpenGL ES command
stream at the client/server boundary (paper §IV, Fig 3).  This package
models exactly that boundary:

* :mod:`repro.gles.commands` — the entry-point registry: names, typed
  parameter signatures, state-mutation and draw classification.
* :mod:`repro.gles.context` — a faithful GL context state machine (textures,
  buffers, shaders/programs, vertex attributes, uniforms, draw state) that
  validates and applies command streams.
* :mod:`repro.gles.serialization` — the wire format used to forward commands
  to a remote server, including the deferred ``glVertexAttribPointer``
  transmission of §IV-B.
* :mod:`repro.gles.egl` — the EGL layer: surfaces, double buffering,
  ``eglSwapBuffers`` and ``eglGetProcAddress``.
* :mod:`repro.gles.trace_file` — apitrace-style capture/replay containers
  of timestamped :class:`TraceFileRecord` command rows.
"""

from repro.gles.commands import (
    COMMANDS,
    CommandSpec,
    GLCommand,
    ParamSpec,
    ParamType,
    command_spec,
    make_command,
)
from repro.gles.context import GLContext, GLError
from repro.gles.egl import EGLDisplay, EGLSurface
from repro.gles.serialization import (
    CommandSerializer,
    DeferredPointerBuffer,
    SerializationError,
    deserialize_command,
    serialize_command,
)
from repro.gles.trace_file import (
    TraceError,
    TraceFileRecord,
    TraceReader,
    TraceWriter,
    TracingInterceptor,
)

__all__ = [
    "COMMANDS",
    "CommandSerializer",
    "CommandSpec",
    "DeferredPointerBuffer",
    "EGLDisplay",
    "EGLSurface",
    "GLCommand",
    "GLContext",
    "GLError",
    "ParamSpec",
    "ParamType",
    "SerializationError",
    "TraceError",
    "TraceFileRecord",
    "TraceReader",
    "TraceWriter",
    "TracingInterceptor",
    "command_spec",
    "deserialize_command",
    "make_command",
    "serialize_command",
]
