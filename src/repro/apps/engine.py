"""The graphics-engine frame loop.

Models how a mobile game produces frames (§IV, §VI-A):

1. the game thread spends ``cpu_ms_per_frame`` building the frame (scaled
   by the device CPU's perf index), plus the GL driver-submission share
   when rendering locally, plus the offload data-path overhead (serialize,
   compress, decode) when a backend charges one;
2. the resulting command batch becomes a :class:`RenderRequest` submitted
   to a :class:`GraphicsBackend` (local GPU, GBooster client, or cloud);
3. ``SwapBuffer`` semantics come from the backend's ``max_pending``: a
   local double-buffered swap allows 2 frames in flight; GBooster's
   rewritten non-blocking swap allows 3 (the §VI-A internal buffer);
   a strict blocking swap (the ablation) allows 1;
4. vsync pacing caps the issue rate at the app's target FPS.

Every frame yields a :class:`FrameRecord` carrying issue/presentation
timestamps and the exogenous signals (§V-B) — touch count, command count,
texture count, command diff — that the traffic predictor consumes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, List, Optional, Protocol

from repro.apps.base import ApplicationSpec, CommandBatchBuilder, SceneState
from repro.apps.touch import TouchEvent, TouchGenerator
from repro.codec.frames import FrameImage
from repro.devices.runtime import UserDeviceRuntime
from repro.gpu.model import RenderRequest
from repro.obs.spans import OpenSpan
from repro.sim.kernel import Event, SimulationError, Simulator

#: CPU time per frame spent inside the local GL driver stack submitting
#: work to the local GPU (fixed setup plus a per-command marshalling cost);
#: offloading replaces this with the client's own data-path overhead.
DRIVER_FIXED_MS = 1.0
DRIVER_PER_COMMAND_US = 6.0


def driver_submit_ms(nominal_commands: int) -> float:
    """Local GL driver submission cost per frame (reference CPU)."""
    return DRIVER_FIXED_MS + nominal_commands * DRIVER_PER_COMMAND_US / 1000.0


class GraphicsBackend(Protocol):
    """What the engine needs from a rendering destination."""

    #: How many rendering requests may be outstanding before the (possibly
    #: rewritten) SwapBuffer blocks the application.
    max_pending: int
    #: Whether frames render through the local GL driver (charges
    #: DRIVER_SUBMIT_MS on the engine's CPU stage).
    uses_local_driver: bool

    def submit(self, request: RenderRequest, frame: FrameImage) -> Event:
        """Dispatch a request; the event fires when the frame is displayed."""
        ...

    def cpu_overhead_ms(self, frame: FrameImage) -> float:
        """Extra per-frame CPU on the user device (serialize/compress/decode)."""
        ...


@dataclass
class FrameRecord:
    frame_id: int
    issued_at: float
    presented_at: Optional[float] = None
    command_count: int = 0
    nominal_command_count: int = 0
    texture_count: int = 0
    command_diff: int = 0
    change_fraction: float = 0.0
    touches_since_last: int = 0

    @property
    def response_time_ms(self) -> Optional[float]:
        if self.presented_at is None:
            return None
        return self.presented_at - self.issued_at


#: frames presented before this are excluded from metrics (menus, loading)
WARMUP_MS = 2_000.0


@dataclass
class EngineConfig:
    duration_ms: float = 60_000.0
    #: a MonkeyRunner-style InputScript replaces the stochastic touch
    #: generator when set (paper §VII-E repeatable tests).
    input_script: Optional[object] = None
    #: make frame *content* a pure function of (seed, frame index): the
    #: scene advances by the fixed vsync dt instead of realized wall time,
    #: and the stochastic touch generator is replaced by scripted per-frame
    #: touches.  Two backends that pace frames differently (local swap
    #: depth 2 vs offload depth 3) then issue identical command streams,
    #: which is what differential replay compares.
    deterministic_content: bool = False


class GameEngine:
    """Runs one application session on one user device."""

    def __init__(
        self,
        sim: Simulator,
        spec: ApplicationSpec,
        device: UserDeviceRuntime,
        backend: GraphicsBackend,
        config: Optional[EngineConfig] = None,
    ):
        self.sim = sim
        self.spec = spec
        self.device = device
        self.backend = backend
        self.config = config or EngineConfig()
        self.scene = SceneState()
        self.rng = sim.stream(f"engine.{spec.short_name}")
        self.builder = CommandBatchBuilder(spec, self.rng.fork("commands"))
        if self.config.input_script is not None:
            from repro.apps.monkeyrunner import ScriptedTouchPlayer

            self.touch = ScriptedTouchPlayer(
                sim, self.config.input_script, on_touch=self._on_touch,
                loop=True,
            )
        elif self.config.deterministic_content:
            # Content mode: touches are injected per frame inside the loop
            # (a pure function of the frame index) instead of by a
            # time-driven generator, so two differently-paced runs
            # see identical input.  The stream name is reserved anyway so
            # downstream stream creation order matches the stochastic path.
            self.touch = None
            self._touch_rng = sim.stream(f"touch.{spec.short_name}")
        else:
            self.touch = TouchGenerator(
                sim, spec, on_touch=self._on_touch,
                rng=sim.stream(f"touch.{spec.short_name}"),
            )
        self.frames: List[FrameRecord] = []
        self.setup_commands = self.builder.setup_commands()
        self._touches_since_frame = 0
        self._prev_command_count = 0
        self._frame_id = 0
        self._inflight: Deque[Event] = deque()
        self.finished = sim.event(name=f"engine.{spec.short_name}.finished")
        sim.call_later(0.0, self._start)

    # -- touch handling -------------------------------------------------------

    def _on_touch(self, event: TouchEvent) -> None:
        self.scene.on_touch(event.strength)
        self._touches_since_frame += 1

    def _synthetic_touch(self, frame_id: int) -> None:
        """Deterministic-content input: touches keyed on the frame index.

        Every frame draws the same number of values from the touch stream
        regardless of outcome, so the stream stays in lockstep between runs
        that present different subsets of frames.
        """
        rng = self._touch_rng
        u = rng.random()
        strength = rng.uniform(0.6, 1.0)
        burst = (frame_id // 45) % 4 == 0
        if burst and u < 0.5:
            self.scene.on_touch(strength)
            self._touches_since_frame += 1

    # -- the frame loop ----------------------------------------------------------

    def _cpu_stage_ms(self, frame: FrameImage) -> float:
        perf = self.device.spec.cpu.perf_index
        stage = self.spec.cpu_ms_per_frame / perf
        if self.backend.uses_local_driver:
            stage += driver_submit_ms(self.spec.nominal_commands_per_frame) / perf
        stage += self.backend.cpu_overhead_ms(frame) / perf
        return stage

    def run(self, limit: float) -> None:
        """Run the simulator until this session has finished.

        Raises :class:`SimulationError` when the frame loop has not
        drained by ``limit`` (a frame that is never presented).
        """
        self.sim.run_until_event(self.finished, limit=limit)
        if not self.finished.triggered:
            raise SimulationError(
                f"engine {self.spec.short_name!r} did not finish by t={limit}"
            )

    # The frame loop is a chain of callbacks: each stage schedules the
    # next at the delay it waits out (CPU stage, vsync) or parks it on the
    # completion event it waits for (SwapBuffer, the final drain).

    def _start(self) -> None:
        spec = self.spec
        self._vsync_ms = 1000.0 / spec.target_fps
        self._end_time = self.sim.now + self.config.duration_ms
        self.device.cpu.set_load("app_base", spec.cpu_base_load)
        self._last_issue = -self._vsync_ms
        self._next_frame()

    def _next_frame(self) -> None:
        if self.sim.now < self._end_time:
            self._swap()
        else:
            self._drain()

    def _swap(self) -> None:
        # SwapBuffer semantics: block while the pending buffer is full.
        if len(self._inflight) >= self.backend.max_pending:
            self._inflight.popleft().on_trigger(self._swap)
        else:
            self._begin_frame()

    def _begin_frame(self) -> None:
        sim = self.sim
        spec = self.spec
        frame_dt_s = self._vsync_ms / 1000.0
        if self.config.deterministic_content:
            # Content mode: fixed dt and frame-indexed synthetic touches
            # keep the scene (and thus the command stream) a pure
            # function of (seed, frame index), independent of pacing.
            self._synthetic_touch(self._frame_id)
            self.scene.advance(frame_dt_s)
        else:
            # Scene evolves with wall time since the previous frame.
            self.scene.advance(
                max(frame_dt_s, (sim.now - self._last_issue) / 1000.0)
            )
        frame_desc = FrameImage(
            width=spec.render_width,
            height=spec.render_height,
            change_fraction=self.scene.change_fraction(spec),
            detail=spec.detail,
        )

        # CPU stage: game logic + driver or offload overhead.  This runs
        # *inside* the frame interval (the game thread works while the
        # previous frame displays), so vsync pacing below only delays
        # the issue if CPU work finished early.
        # Stamp the frame's wire-propagated trace context at intercept:
        # the id is a pure function of (seed, session, frame), so every
        # downstream component — codec, transport, server, replay,
        # planner — attributes its work to the same causal identity.
        trace = (
            sim.causal.frame_trace(self._frame_id)
            if sim.causal is not None
            else None
        )
        trace_args = (
            {"trace_id": trace.trace_id} if trace is not None else {}
        )
        root_span = sim.spans.begin(
            "frame", "frame", track="engine", frame_id=self._frame_id,
            **trace_args,
        )
        intercept_span = sim.spans.begin(
            "app", "intercept", track="engine",
            frame_id=self._frame_id, parent=root_span, **trace_args,
        )
        stage_ms = self._cpu_stage_ms(frame_desc)
        sim.call_later(
            stage_ms, self._pace, frame_desc, stage_ms, root_span,
            intercept_span, trace,
        )

    def _pace(
        self,
        frame_desc: FrameImage,
        stage_ms: float,
        root_span: "OpenSpan",
        intercept_span: "OpenSpan",
        trace: Optional[Any],
    ) -> None:
        intercept_span.end()
        # Vsync pacing on issue rate.
        sim = self.sim
        earliest = self._last_issue + self._vsync_ms
        if sim.now < earliest:
            sim.call_later(
                earliest - sim.now, self._issue, frame_desc, stage_ms,
                root_span, trace,
            )
        else:
            self._issue(frame_desc, stage_ms, root_span, trace)

    def _issue(
        self,
        frame_desc: FrameImage,
        stage_ms: float,
        root_span: "OpenSpan",
        trace: Optional[Any],
    ) -> None:
        sim = self.sim
        spec = self.spec
        commands = self.builder.frame_commands(self.scene)
        if sim.digests is not None:
            sim.digests.record_issue(self._frame_id, commands)
        record = FrameRecord(
            frame_id=self._frame_id,
            issued_at=sim.now,
            command_count=len(commands),
            nominal_command_count=spec.nominal_commands_per_frame,
            texture_count=max(
                1,
                int(
                    spec.textures_per_frame
                    * (0.5 + 0.5 * self.scene.activity)
                ),
            ),
            command_diff=int(
                spec.nominal_commands_per_frame
                * self.scene.change_fraction(spec)
                * self.rng.uniform(0.6, 1.4)
            ),
            change_fraction=frame_desc.change_fraction,
            touches_since_last=self._touches_since_frame,
        )
        self._touches_since_frame = 0
        self.frames.append(record)

        request = RenderRequest(
            request_id=self._frame_id,
            frame_id=self._frame_id,
            commands=commands,
            fill_megapixels=spec.fill_mp_per_frame
            * self.rng.uniform(0.92, 1.08),
            vertex_count=spec.nominal_commands_per_frame * 12,
            width=spec.render_width,
            height=spec.render_height,
            issued_at=sim.now,
            metadata={
                "record": record,
                "frame_span": root_span,
                "trace": trace,
            },
        )
        completion = self.backend.submit(request, frame_desc)
        self._bind_presentation(completion, record, root_span, trace)
        self._inflight.append(completion)
        # CPU load accounting (§VII-G): busy fraction over the realized
        # frame interval, spread across the device's cores.
        interval_ms = max(sim.now - self._last_issue, stage_ms, 1e-6)
        cores = self.device.spec.cpu.cores
        self.device.cpu.set_load(
            "frame_gen", min(1.0, stage_ms / interval_ms / cores)
        )
        self._last_issue = sim.now
        self._frame_id += 1
        self._next_frame()

    def _drain(self) -> None:
        # Drain outstanding frames before declaring the session over.
        if self._inflight:
            self._inflight.popleft().on_trigger(self._drain)
            return
        self.device.cpu.set_load("frame_gen", 0.0)
        self.device.cpu.set_load("app_base", 0.0)
        if not self.finished.triggered:
            self.finished.trigger(len(self.frames))

    def _bind_presentation(
        self,
        completion: Event,
        record: FrameRecord,
        root_span: Optional["OpenSpan"] = None,
        trace: Optional[Any] = None,
    ) -> None:
        """Present ``record`` when ``completion`` fires.

        The callback joins the completion's waiters from the queue, one
        slot after this step: when the frame loop goes on to wait on the
        same completion in this step (SwapBuffer blocking, the final
        drain), it is woken before the presentation, in that order.
        """
        self.sim.call_later(
            0.0, completion.on_trigger, self._present, record, root_span, trace
        )

    def _present(
        self,
        record: FrameRecord,
        root_span: Optional["OpenSpan"],
        trace: Optional[Any],
    ) -> None:
        sim = self.sim
        record.presented_at = sim.now
        self.device.surface.attach_back(None)
        if root_span is not None:
            root_span.end(response_ms=record.response_time_ms)
        if sim.telemetry is not None:
            sim.telemetry.observe(
                "engine.response_ms", record.response_time_ms,
                trace_id=trace.trace_id if trace is not None else None,
                genre=self.spec.genre,
            )

    # -- session results -------------------------------------------------------------

    def presented_frames(self) -> List[FrameRecord]:
        return [
            f
            for f in self.frames
            if f.presented_at is not None and f.presented_at >= WARMUP_MS
        ]
