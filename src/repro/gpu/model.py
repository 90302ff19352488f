"""The GPU execution engine.

A :class:`GPUDevice` owns one GPU.  It takes :class:`RenderRequest`
objects in FIFO order and executes them **non-preemptively** (paper §VI-A:
"a rendering request ... will be executed in a non-preemptive way
according to the modern GPU architecture"), as callbacks: one timer for
the submit overhead and one per fill slice.  Execution time is the
request's fill workload divided by the GPU's current effective capacity,
which the thermal governor may have collapsed mid-session.

The device also integrates its own energy and keeps a frequency/temperature
trace, so Fig 1 and the power experiments read directly off it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Tuple

from repro.gles.commands import GLCommand
from repro.gpu.power import GPUPowerModel
from repro.gpu.profiles import GPUSpec
from repro.gpu.thermal import ThermalGovernor, ThermalModel
from repro.sim.kernel import Simulator
from repro.sim.resources import Gauge

# Fixed CPU-side cost of submitting one command to the GPU ring buffer;
# dominates only for degenerate many-tiny-command streams.
COMMAND_SUBMIT_OVERHEAD_MS = 0.0008


@dataclass
class RenderRequest:
    """A sequence of graphics commands rendering one frame (§VI-A).

    ``fill_megapixels`` is the shader-weighted fill workload the request
    produces — the quantity the paper profiles per command stream via the
    TimeGraph approach [31] and uses as ``r`` in the Eq. 4 dispatcher.
    """

    request_id: int
    frame_id: int
    commands: List[GLCommand] = field(default_factory=list)
    fill_megapixels: float = 1.0
    vertex_count: int = 0
    width: int = 1280
    height: int = 720
    issued_at: float = 0.0
    metadata: dict = field(default_factory=dict)

    @property
    def workload(self) -> float:
        """Workload ``r`` in megapixels of shader-weighted fill."""
        return self.fill_megapixels


@dataclass
class CompletedRender:
    request: RenderRequest
    started_at: float
    finished_at: float
    freq_mhz: float

    @property
    def execution_ms(self) -> float:
        return self.finished_at - self.started_at


class GPUDevice:
    """One GPU attached to the simulation kernel."""

    def __init__(
        self,
        sim: Simulator,
        spec: GPUSpec,
        name: str = "",
        on_complete: Optional[Callable[[CompletedRender], None]] = None,
        initial_temp_c: Optional[float] = None,
        thermal_step_ms: float = 1000.0,
    ):
        self.sim = sim
        self.spec = spec
        self.name = name or spec.name
        self.on_complete = on_complete
        #: submitted requests, each with its continuation, not yet started
        self._queue: Deque[
            Tuple[RenderRequest, Optional[Callable[[CompletedRender], None]]]
        ] = deque()
        #: a request is rendering, or is about to start
        self._busy = False
        self.power_model = GPUPowerModel(spec)
        self.thermal = ThermalModel(spec, initial_temp_c=initial_temp_c)
        self.governor = ThermalGovernor(spec, self.thermal)
        self.thermal_step_ms = thermal_step_ms

        self.busy = Gauge(sim, 0.0, name=f"{self.name}.busy")
        self.power = Gauge(sim, spec.idle_power_w, name=f"{self.name}.power")
        self.completed: List[CompletedRender] = []
        self.freq_trace: List[Tuple[float, float, float]] = []

        sim.every(thermal_step_ms, self._thermal_step)

    # -- public API ------------------------------------------------------------

    def submit(
        self,
        request: RenderRequest,
        then: Optional[Callable[[CompletedRender], None]] = None,
    ) -> None:
        """Enqueue a rendering request (FIFO, §VIII multiple-users note).

        ``then(done)`` runs the instant the render completes, before the
        GPU takes its next request.
        """
        request.metadata.setdefault("enqueued_at", self.sim.now)
        if self._busy:
            self._queue.append((request, then))
        else:
            self._busy = True
            self.sim.soon(self._start, request, then)

    def mark_render(self, done: CompletedRender) -> None:
        """Record a finished render that no span covers: a local,
        failover or local-fallback render.  A service node's render lies
        inside its ``server.execute`` span and is not marked."""
        self.sim.spans.mark(
            "gpu",
            "render_complete",
            frame_id=done.request.frame_id,
            device=self.name,
            request_id=done.request.request_id,
            execution_ms=done.execution_ms,
        )

    def capacity_megapixels_per_ms(self) -> float:
        """Effective capacity ``c`` in Eq. 4 units (MP per millisecond)."""
        return self.spec.capacity_at(self.governor.freq_mhz) * 1000.0 / 1000.0

    @property
    def temperature_c(self) -> float:
        return self.thermal.temperature_c

    def energy_joules(self) -> float:
        """Energy consumed so far (power gauge integral; gauge is in W, time
        in ms, so divide by 1000)."""
        return self.power.integral() / 1000.0

    def utilization(self) -> float:
        return self.busy.mean()

    # -- internals ----------------------------------------------------------------

    def _start(
        self,
        request: RenderRequest,
        then: Optional[Callable[[CompletedRender], None]],
    ) -> None:
        self.busy.set(1.0)
        self._update_power()
        overhead_ms = COMMAND_SUBMIT_OVERHEAD_MS * len(request.commands)
        self.sim.call_later(
            overhead_ms, self._fill,
            request, then, self.sim.now, request.fill_megapixels,
        )

    def _fill(
        self,
        request: RenderRequest,
        then: Optional[Callable[[CompletedRender], None]],
        started: float,
        remaining_mp: float,
    ) -> None:
        # Execute fill work in slices so a governor throttle mid-request
        # slows the remainder, exactly as a DVFS transition would: each
        # slice runs at the capacity read at its start.
        if remaining_mp > 1e-12:
            capacity_mp_per_ms = (
                self.spec.capacity_at(self.governor.freq_mhz) * 1.0
            )  # GP/s == MP/ms
            slice_ms = min(
                self.thermal_step_ms, remaining_mp / capacity_mp_per_ms
            )
            self.sim.call_later(
                slice_ms, self._fill, request, then, started,
                remaining_mp - capacity_mp_per_ms * slice_ms,
            )
            return
        self.busy.set(0.0)
        self._update_power()
        done = CompletedRender(
            request=request,
            started_at=started,
            finished_at=self.sim.now,
            freq_mhz=self.governor.freq_mhz,
        )
        self.completed.append(done)
        if self.on_complete is not None:
            self.on_complete(done)
        if then is not None:
            then(done)
        if self._queue:
            self.sim.soon(self._start, *self._queue.popleft())
        else:
            self._busy = False

    def _thermal_step(self) -> None:
        """Periodic thermal integration and governor stepping."""
        self._update_power()
        power = self.power.value
        dt_s = self.thermal_step_ms / 1000.0
        old_freq = self.governor.freq_mhz
        new_freq = self.governor.step(self.sim.now / 1000.0, dt_s, power)
        self.freq_trace.append(
            (self.sim.now, new_freq, self.thermal.temperature_c)
        )
        if new_freq != old_freq:
            self.sim.spans.mark(
                "gpu",
                "dvfs",
                device=self.name,
                freq_mhz=new_freq,
                temperature_c=self.thermal.temperature_c,
            )
            self._update_power()

    def _update_power(self) -> None:
        self.power.set(
            self.power_model.power_w(self.busy.value, self.governor.freq_mhz)
        )
