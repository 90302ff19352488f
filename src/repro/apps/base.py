"""Application specifications and GL command-batch generation.

An :class:`ApplicationSpec` captures everything the simulation needs to
know about one app: how hard each frame works the GPU (shader-weighted fill
megapixels), how long the CPU takes to build a frame, how busy its scenes
are, and how its traffic responds to user input.

:class:`CommandBatchBuilder` turns a spec plus the current scene state into
a *real* ``GLCommand`` batch — state setup, uniform updates, texture binds,
vertex-pointer + draw pairs — that flows through the genuine interception,
caching, serialization and replay machinery.  To keep 15-minute sessions
tractable the emitted batch is a representative subsample
(``emitted_commands`` per frame) of the nominal stream
(``nominal_commands``); byte accounting upscales by the ratio, while cache
hit rates and compression ratios are measured on the real subsample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.gles import enums as gl
from repro.gles.commands import GLCommand, make_command
from repro.sim.random import RandomStream


@dataclass(frozen=True)
class ApplicationSpec:
    """Workload model of one application."""

    name: str
    short_name: str
    genre: str                     # "action" | "roleplaying" | "puzzle" | "app"
    package_size_gb: float

    # GPU workload: shader-weighted fill per frame, in megapixels.  Local
    # FPS on a device is (device fill capacity in MP/ms) / (fill_mp / 1000).
    fill_mp_per_frame: float

    # CPU cost of generating one frame's commands, plus a rate-independent
    # background load (game logic, audio, physics).
    cpu_ms_per_frame: float
    cpu_base_load: float

    # Command-stream statistics.
    nominal_commands_per_frame: int
    emitted_commands_per_frame: int
    textures_per_frame: int

    # Offload rendering resolution (the paper's service-side setting).
    render_width: int
    render_height: int

    # Scene dynamics: base change fraction between consecutive frames, how
    # strongly touch activity raises it, and the detail level of content.
    base_change_fraction: float
    burst_change_fraction: float
    detail: float

    # Touch behaviour: mean seconds between input bursts and burst length.
    touch_burst_interval_s: float
    touch_burst_duration_s: float
    touch_rate_in_burst_hz: float

    # Engine pacing.
    target_fps: float = 60.0

    def local_fps_on(self, capacity_gpixels: float) -> float:
        """Fill-bound frame rate on a GPU of the given capacity."""
        if self.fill_mp_per_frame <= 0:
            return self.target_fps
        frame_ms = self.fill_mp_per_frame / capacity_gpixels  # GP/s == MP/ms
        return min(self.target_fps, 1000.0 / frame_ms)

    @property
    def stream_scale(self) -> float:
        """Byte upscale factor from emitted subsample to nominal stream."""
        return self.nominal_commands_per_frame / max(
            1, self.emitted_commands_per_frame
        )


@dataclass
class SceneState:
    """Evolving scene activity, pushed up by touches, decaying over time.

    ``activity`` in [0, 1] interpolates the app between its calm and burst
    behaviour; it drives the frame change fraction (image traffic), command
    churn (command traffic) and the exogenous signals the ARMAX model uses.
    """

    activity: float = 0.0
    decay_per_s: float = 1.8
    scene_id: int = 0
    frames_in_scene: int = 0
    #: game-logic latency between an input and its visible scene response
    #: (animation wind-up, camera easing).  This lag is why touchstroke
    #: frequency *leads* the traffic surge it provokes — the mechanism the
    #: ARMAX exogenous input exploits (§V-B).
    touch_response_lag_s: float = 0.35
    _pending: List[List[float]] = field(default_factory=list)

    def on_touch(self, strength: float = 1.0) -> None:
        self._pending.append([self.touch_response_lag_s, 0.45 * strength])

    def advance(self, dt_s: float) -> None:
        self.activity = max(0.0, self.activity * math.exp(-self.decay_per_s * dt_s))
        still_pending: List[List[float]] = []
        for entry in self._pending:
            entry[0] -= dt_s
            if entry[0] <= 0:
                self.activity = min(1.0, self.activity + entry[1])
            else:
                still_pending.append(entry)
        self._pending = still_pending
        self.frames_in_scene += 1
        # Occasional hard scene cuts when activity is saturated.
        if self.activity > 0.95 and self.frames_in_scene > 30:
            self.scene_id += 1
            self.frames_in_scene = 0

    def change_fraction(self, spec: ApplicationSpec) -> float:
        base = spec.base_change_fraction
        burst = spec.burst_change_fraction
        # Superlinear in activity: scenes stay near their calm baseline for
        # light input and only approach the burst level under sustained
        # interaction, matching how game cameras respond.
        return min(1.0, base + (burst - base) * self.activity ** 1.6)


class CommandBatchBuilder:
    """Generates per-frame GL command batches for an application."""

    def __init__(self, spec: ApplicationSpec, rng: RandomStream):
        self.spec = spec
        self.rng = rng
        self._frame_index = 0
        self._texture_names: List[int] = []
        self._buffer_names: List[int] = []
        self._program: int = 0
        self._u_mvp: int = 0
        self._u_time: int = 1
        # Every per-frame command but the camera matrix is one of a few
        # distinct values; each is built once and reissued every frame.
        self._frame_prologue: List[GLCommand] = []
        self._binds: Dict[int, GLCommand] = {}
        self._draws: Dict[int, GLCommand] = {}
        self._dynamic_pointers: Dict[int, GLCommand] = {}
        self._vbo_pointer = make_command(
            "glVertexAttribPointer", 0, 3, gl.GL_FLOAT, False, 20, 0,
        )

    # -- setup --------------------------------------------------------------

    def setup_commands(self) -> List[GLCommand]:
        """The one-time context setup an app performs at startup.

        These are all state-mutating, so in multi-device mode they are the
        commands replicated to every service device (§VI-B).
        """
        spec = self.spec
        cmds: List[GLCommand] = [
            make_command("glViewport", 0, 0, spec.render_width,
                         spec.render_height),
            make_command("glClearColor", 0.1, 0.1, 0.15, 1.0),
            make_command("glEnable", gl.GL_DEPTH_TEST),
            make_command("glEnable", gl.GL_CULL_FACE),
            make_command("glBlendFunc", gl.GL_SRC_ALPHA,
                         gl.GL_ONE_MINUS_SRC_ALPHA),
        ]
        # Shaders and program.
        vs_src = (
            "attribute vec3 a_pos; attribute vec2 a_uv;\n"
            "uniform mat4 u_mvp; varying vec2 v_uv;\n"
            "void main() { v_uv = a_uv; gl_Position = u_mvp * vec4(a_pos, 1.0); }"
        )
        fs_src = (
            "precision mediump float; varying vec2 v_uv;\n"
            "uniform sampler2D u_tex; uniform float u_time;\n"
            "void main() { gl_FragColor = texture2D(u_tex, v_uv); }"
        )
        cmds.extend(
            [
                make_command("glCreateShader", gl.GL_VERTEX_SHADER),
                make_command("glShaderSource", 1, vs_src),
                make_command("glCompileShader", 1),
                make_command("glCreateShader", gl.GL_FRAGMENT_SHADER),
                make_command("glShaderSource", 2, fs_src),
                make_command("glCompileShader", 2),
                make_command("glCreateProgram"),
                make_command("glAttachShader", 3, 1),
                make_command("glAttachShader", 3, 2),
                make_command("glLinkProgram", 3),
                make_command("glUseProgram", 3),
            ]
        )
        self._program = 3
        self._frame_prologue = [
            make_command(
                "glClear", gl.GL_COLOR_BUFFER_BIT | gl.GL_DEPTH_BUFFER_BIT
            ),
            make_command("glUseProgram", self._program),
        ]
        # Textures: deterministic synthetic payloads sized by the app.
        tex_side = 128 if self.spec.genre != "puzzle" else 64
        n_textures = max(2, self.spec.textures_per_frame)
        cmds.append(make_command("glGenTextures", n_textures))
        for i in range(n_textures):
            name = 4 + i
            self._texture_names.append(name)
            payload = self._texture_payload(tex_side, i)
            cmds.extend(
                [
                    make_command("glBindTexture", gl.GL_TEXTURE_2D, name),
                    make_command(
                        "glTexImage2D", gl.GL_TEXTURE_2D, 0, gl.GL_RGBA,
                        tex_side, tex_side, 0, gl.GL_RGBA,
                        gl.GL_UNSIGNED_BYTE, payload,
                    ),
                    make_command(
                        "glTexParameteri", gl.GL_TEXTURE_2D,
                        gl.GL_TEXTURE_MIN_FILTER, gl.GL_LINEAR,
                    ),
                ]
            )
        # A shared vertex buffer for static geometry.
        cmds.append(make_command("glGenBuffers", 2))
        vbo = 4 + n_textures
        self._buffer_names = [vbo, vbo + 1]
        static_geometry = self._vertex_payload(1024, seed=0)
        cmds.extend(
            [
                make_command("glBindBuffer", gl.GL_ARRAY_BUFFER, vbo),
                make_command(
                    "glBufferData", gl.GL_ARRAY_BUFFER,
                    len(static_geometry), static_geometry, gl.GL_STATIC_DRAW,
                ),
            ]
        )
        return cmds

    # -- per-frame ------------------------------------------------------------------

    def frame_commands(self, scene: SceneState) -> List[GLCommand]:
        """One frame's (subsampled) command batch.

        The batch mixes stable commands (identical across frames — LRU cache
        fodder) with per-frame-varying uniforms and draws; the mix shifts
        with scene activity, so busy scenes produce lower hit rates and more
        traffic, as §V-A describes.
        """
        if not self._texture_names:
            raise RuntimeError(
                "frame_commands() before setup_commands(): the app must "
                "create its textures and program first"
            )
        spec = self.spec
        n = spec.emitted_commands_per_frame
        activity = scene.activity
        cmds: List[GLCommand] = list(self._frame_prologue)
        # Camera matrix: changes only when the scene is moving.
        if activity > 0.02 or scene.frames_in_scene % 120 == 0:
            angle = (self._frame_index % 3600) * 0.1 * (0.2 + activity)
            cmds.append(
                make_command(
                    "glUniformMatrix4fv", self._u_mvp, 1, False,
                    self._rotation_matrix(angle),
                )
            )
        draws_budget = max(1, n - len(cmds) - 2)
        draw_slots = max(1, draws_budget // 4)
        textures = self._texture_names
        vertex_count = 6 * (2 + int(6 * activity))
        draw = self._draws.get(vertex_count)
        if draw is None:
            draw = self._draws[vertex_count] = make_command(
                "glDrawArrays", gl.GL_TRIANGLES, 0, vertex_count
            )
        for slot in range(draw_slots):
            tex = textures[(slot + scene.scene_id) % len(textures)]
            bind = self._binds.get(tex)
            if bind is None:
                bind = self._binds[tex] = make_command(
                    "glBindTexture", gl.GL_TEXTURE_2D, tex
                )
            cmds.append(bind)
            # Dynamic objects re-upload small vertex ranges when active.
            if self.rng.random() < 0.05 + 0.2 * activity:
                base = _payload_base(self._frame_index * 31 + slot)
                pointer = self._dynamic_pointers.get(base)
                if pointer is None:
                    pointer = self._dynamic_pointers[base] = make_command(
                        "glVertexAttribPointer", 0, 3, gl.GL_FLOAT, False,
                        20, _vertex_bytes(48, base),
                    )
                cmds.append(pointer)
            else:
                cmds.append(self._vbo_pointer)
            cmds.append(draw)
        self._frame_index += 1
        return cmds

    # -- synthetic payload helpers ----------------------------------------------------

    def _texture_payload(self, side: int, index: int) -> bytes:
        """Deterministic pseudo-texture bytes (compressible, not constant)."""
        pattern = bytearray()
        for i in range(side * 4):
            pattern.append((i * (index + 3) + index * 17) % 251)
        return bytes(pattern * side)[: side * side * 4]

    def _vertex_payload(self, vertices: int, seed: int) -> bytes:
        """Vertex bytes with realistic structure.

        Real vertex buffers are low-entropy: coordinates share exponent
        bytes, UVs repeat, strides align.  Each 4-byte word here carries a
        slowly varying low byte and near-constant upper bytes, giving the
        LZ compressor the redundancy genuine geometry has.  The bytes
        depend on ``seed`` only through a 6-bit base, so each buffer is
        built once and shared.
        """
        return _vertex_bytes(vertices, _payload_base(seed))

    def _rotation_matrix(self, angle_deg: float) -> Tuple[float, ...]:
        a = math.radians(angle_deg)
        c, s = math.cos(a), math.sin(a)
        return (
            c, -s, 0.0, 0.0,
            s, c, 0.0, 0.0,
            0.0, 0.0, 1.0, 0.0,
            0.0, 0.0, 0.0, 1.0,
        )


def _payload_base(seed: int) -> int:
    """The 6-bit base a vertex payload's bytes depend on."""
    return (seed * 2654435761 + 12345) & 0x3F


@lru_cache(maxsize=256)
def _vertex_bytes(vertices: int, base: int) -> bytes:
    out = bytearray()
    for i in range(vertices * 5):  # pos3 + uv2, 4 bytes each
        low = (base + (i % 16) * 3) & 0x3F  # short-period sweep
        out += bytes((low, (i % 5) * 16, 0x3E, 0x41))
    return bytes(out)
