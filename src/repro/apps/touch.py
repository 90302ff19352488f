"""Touch-event generation (the MonkeyRunner stand-in).

The paper drives repeatable sessions with scripted input; here a seeded
burst generator plays the same role: quiet stretches punctuated by input
bursts whose rate and duration are genre parameters.  Touch timing is the
*cause* that leads the traffic surge by a beat — the signal the ARMAX
exogenous input exploits (§V-B attribute 1, read from /proc/interrupts on
the real system).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.apps.base import ApplicationSpec
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStream


@dataclass(frozen=True)
class TouchEvent:
    time_ms: float
    x: float
    y: float
    strength: float = 1.0


class TouchGenerator:
    """Emits bursts of touch events on the simulator, as callbacks."""

    def __init__(
        self,
        sim: Simulator,
        spec: ApplicationSpec,
        on_touch: Optional[Callable[[TouchEvent], None]] = None,
        rng: Optional[RandomStream] = None,
    ):
        self.sim = sim
        self.spec = spec
        self.on_touch = on_touch
        sim.on_teardown(setattr, self, "on_touch", None)
        self.rng = rng or sim.stream(f"touch.{spec.short_name}")
        self.events: List[TouchEvent] = []
        sim.call_later(0.0, self._quiet)

    def _quiet(self) -> None:
        # Quiet gap until the next burst (exponential around the mean).
        gap_ms = self.rng.exponential(
            self.spec.touch_burst_interval_s * 1000.0
        )
        self.sim.call_later(max(50.0, gap_ms), self._burst)

    def _burst(self) -> None:
        # Burst: touches at the in-burst rate for the burst duration.
        spec = self.spec
        duration_ms = max(
            100.0,
            self.rng.normal(
                spec.touch_burst_duration_s * 1000.0,
                spec.touch_burst_duration_s * 200.0,
            ),
        )
        self._touch(
            self.sim.now + duration_ms, 1000.0 / spec.touch_rate_in_burst_hz
        )

    def _touch(self, burst_end: float, period_ms: float) -> None:
        if self.sim.now >= burst_end:
            self._quiet()
            return
        event = TouchEvent(
            time_ms=self.sim.now,
            x=self.rng.uniform(0.0, 1.0),
            y=self.rng.uniform(0.0, 1.0),
            strength=self.rng.uniform(0.6, 1.0),
        )
        self.events.append(event)
        if self.on_touch is not None:
            self.on_touch(event)
        self.sim.call_later(
            max(10.0, self.rng.normal(period_ms, period_ms * 0.2)),
            self._touch, burst_end, period_ms,
        )

    def count_in_window(self, start_ms: float, end_ms: float) -> int:
        """Touches observed in [start, end) — the /proc/interrupts signal."""
        return sum(1 for e in self.events if start_ms <= e.time_ms < end_ms)
