"""Scripted input playback (the paper's MonkeyRunner methodology).

§VII-E: "We utilize MonkeyRunner to generate same sets of touch events for
repeatable tests."  This module provides the equivalent: a serializable
input script (timed touch events), a recorder that captures a generated
session's events into a script, and a player that feeds a script to the
engine instead of the stochastic :class:`TouchGenerator` — so two runs see
*literally identical* input, not merely identically-distributed input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Union

from repro.apps.touch import TouchEvent
from repro.sim.kernel import Simulator

SCRIPT_VERSION = 1


@dataclass
class InputScript:
    """A recorded, replayable sequence of touch events."""

    events: List[TouchEvent] = field(default_factory=list)
    name: str = "script"

    def __len__(self) -> int:
        return len(self.events)

    @property
    def duration_ms(self) -> float:
        return self.events[-1].time_ms if self.events else 0.0

    def validate(self) -> None:
        last = -1.0
        for event in self.events:
            if event.time_ms < 0:
                raise ValueError(f"negative event time {event.time_ms}")
            if event.time_ms < last:
                raise ValueError("events must be time-ordered")
            last = event.time_ms

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": SCRIPT_VERSION,
                "name": self.name,
                "events": [
                    [e.time_ms, e.x, e.y, e.strength] for e in self.events
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "InputScript":
        payload = json.loads(text)
        if payload.get("version") != SCRIPT_VERSION:
            raise ValueError(
                f"unsupported script version {payload.get('version')!r}"
            )
        script = cls(
            name=payload.get("name", "script"),
            events=[
                TouchEvent(time_ms=t, x=x, y=y, strength=s)
                for t, x, y, s in payload["events"]
            ],
        )
        script.validate()
        return script

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "InputScript":
        return cls.from_json(Path(path).read_text())

    # -- recording helpers -----------------------------------------------------

    @classmethod
    def record_from_generator(
        cls, spec, duration_ms: float, seed: int = 0, name: str = ""
    ) -> "InputScript":
        """Capture one stochastic session's touches into a fixed script."""
        from repro.apps.touch import TouchGenerator

        sim = Simulator(seed=seed)
        generator = TouchGenerator(sim, spec)
        sim.run(until=duration_ms)
        sim.teardown()
        return cls(
            events=list(generator.events),
            name=name or f"{spec.short_name}-recorded",
        )


class ScriptedTouchPlayer:
    """Plays an :class:`InputScript` into an engine (TouchGenerator shape)."""

    def __init__(
        self,
        sim: Simulator,
        script: InputScript,
        on_touch: Optional[Callable[[TouchEvent], None]] = None,
        loop: bool = False,
    ):
        script.validate()
        if loop and script.events and script.duration_ms <= 0.0:
            # Every pass would replay at one instant, forever.
            raise ValueError(
                "a looping script must span time; its last event is at 0 ms"
            )
        self.sim = sim
        self.script = script
        self.on_touch = on_touch
        sim.on_teardown(setattr, self, "on_touch", None)
        self.loop = loop
        self.events: List[TouchEvent] = []
        sim.call_later(0.0, self._start)

    def _start(self) -> None:
        self._base = self.sim.now
        self._play(0, False)

    def _play(self, i: int, due: bool) -> None:
        """Play event ``i`` once due, and every later one due now; queue
        the first that is not.  A looping script restarts from the
        instant its last event played."""
        events = self.script.events
        sim = self.sim
        while events:
            while i < len(events):
                event = events[i]
                if not due:
                    when = self._base + event.time_ms
                    if when > sim.now:
                        sim.call_later(when - sim.now, self._play, i, True)
                        return
                due = False
                played = TouchEvent(
                    time_ms=sim.now, x=event.x, y=event.y,
                    strength=event.strength,
                )
                self.events.append(played)
                if self.on_touch is not None:
                    self.on_touch(played)
                i += 1
            if not self.loop:
                return
            self._base = sim.now
            i = 0

    def count_in_window(self, start_ms: float, end_ms: float) -> int:
        return sum(1 for e in self.events if start_ms <= e.time_ms < end_ms)
