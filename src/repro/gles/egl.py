"""The EGL layer: displays, surfaces, double buffering and SwapBuffers.

Two EGL behaviours matter to GBooster:

* ``eglSwapBuffers`` marks a frame boundary.  Locally it blocks until the
  GPU finishes the frame (double buffering, paper §IV-C); GBooster rewrites
  it to return immediately so multiple rendering requests can pipeline
  (§VI-A).
* ``eglGetProcAddress`` is one of the three routes applications use to reach
  GL entry points (§IV-A); the wrapper library must interpose it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Frame:
    """One rendered color buffer, as handed to the display system."""

    frame_id: int
    width: int
    height: int
    produced_at: float = 0.0
    source: str = "local"      # "local" | "remote"
    payload: Optional[bytes] = None

    @property
    def pixels(self) -> int:
        return self.width * self.height


@dataclass
class EGLSurface:
    """A double-buffered window surface."""

    width: int
    height: int
    name: str = "surface"
    front: Optional[Frame] = None
    back: Optional[Frame] = None
    swap_count: int = 0
    presented: List[Tuple[float, Frame]] = field(default_factory=list)

    def attach_back(self, frame: Frame) -> None:
        self.back = frame

    def swap(self, now: float) -> Optional[Frame]:
        """Exchange front and back buffers; returns the newly visible frame.

        The display system records every presentation so FPS metrics can be
        computed from presentation timestamps, exactly how the paper's FPS
        instrumentation observes SwapBuffer completions.
        """
        if self.back is None:
            return None
        self.front, self.back = self.back, None
        self.swap_count += 1
        self.presented.append((now, self.front))
        return self.front

    def presentation_times(self) -> List[float]:
        return [t for t, _f in self.presented]


class EGLDisplay:
    """Registry of surfaces plus the eglGetProcAddress resolution table.

    ``get_proc_address`` consults an ordered chain of resolvers; the
    GBooster wrapper prepends its own resolver so applications that fetch
    function pointers still land in the wrapper (§IV-A route 2).
    """

    def __init__(self, name: str = "display"):
        self.name = name
        self.surfaces: Dict[str, EGLSurface] = {}
        self._resolvers: List[Callable[[str], Optional[Callable]]] = []
        self._native_procs: Dict[str, Callable] = {}

    # -- surfaces -------------------------------------------------------------

    def create_window_surface(
        self, width: int, height: int, name: str = "surface"
    ) -> EGLSurface:
        if name in self.surfaces:
            raise ValueError(f"surface {name!r} already exists")
        surface = EGLSurface(width=width, height=height, name=name)
        self.surfaces[name] = surface
        return surface

    def destroy_surface(self, name: str) -> None:
        self.surfaces.pop(name, None)

    # -- proc address resolution ------------------------------------------------

    def register_native(self, name: str, fn: Callable) -> None:
        self._native_procs[name] = fn

    def push_resolver(
        self, resolver: Callable[[str], Optional[Callable]]
    ) -> None:
        """Prepend a resolver; later pushes win, like LD_PRELOAD ordering."""
        self._resolvers.insert(0, resolver)

    def get_proc_address(self, name: str) -> Optional[Callable]:
        for resolver in self._resolvers:
            fn = resolver(name)
            if fn is not None:
                return fn
        return self._native_procs.get(name)
