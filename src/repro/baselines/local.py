"""Local execution: the paper's comparison case.

Frames render on the device's own GPU through the native GL library.  The
Android buffer queue double-buffers, so the engine may have two frames in
flight (CPU building frame N+1 while the GPU renders frame N) — which makes
local FPS the max of the CPU and GPU stage rates, as observed on real
devices.  The local GL driver's submission cost stays on the CPU
(``uses_local_driver``), and the thermal governor throttles the session
mid-way on passively cooled phones, producing the paper's FPS instability.
"""

from __future__ import annotations

from functools import partial

from repro.codec.frames import FrameImage
from repro.devices.runtime import UserDeviceRuntime
from repro.gles.context import GLContext
from repro.gpu.model import CompletedRender, RenderRequest
from repro.sim.kernel import Event, Simulator


class LocalBackend:
    """Renders on the user device's own GPU."""

    max_pending = 2          # Android double buffering
    uses_local_driver = True

    def __init__(self, sim: Simulator, device: UserDeviceRuntime,
                 execute_commands: bool = False):
        self.sim = sim
        self.device = device
        self.execute_commands = execute_commands
        self.context: GLContext = device.context
        self.frames_submitted = 0

    def cpu_overhead_ms(self, frame: FrameImage) -> float:
        return 0.0

    def submit(self, request: RenderRequest, frame: FrameImage) -> Event:
        if self.execute_commands:
            # Replay through the real context state machine (tests /
            # short sessions; byte-identical to what a service device sees).
            self.context.execute_sequence(request.commands)
            if self.sim.digests is not None:
                self.sim.digests.record_execution(
                    request.frame_id, request.commands, site="local"
                )
        completion = self.sim.event(name=f"local.done.{request.request_id}")
        self.frames_submitted += 1
        # The GPU completion *is* the presentation: the swap that follows a
        # finished render is immediate on the local display path.
        self.device.gpu.submit(request, partial(self._rendered, completion))
        return completion

    def _rendered(self, completion: Event, done: CompletedRender) -> None:
        self.device.gpu.mark_render(done)
        completion.trigger(done)
