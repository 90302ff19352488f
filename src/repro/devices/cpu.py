"""CPU specifications and a utilization/power model.

The paper's motivation (§II) observes that phone CPUs comfortably exceed
game requirements — the GPU is the bottleneck — and that the GPU draws
about five times the CPU's power under graphics load.  The CPU model
tracks utilization contributions from the application (frame generation)
and from GBooster's own intermediate steps (serialization, compression,
image decoding), which feed the §VII-G CPU-overhead experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.sim.kernel import Simulator
from repro.sim.resources import Gauge


@dataclass(frozen=True)
class CPUSpec:
    """Static description of one CPU."""

    name: str
    clock_ghz: float
    cores: int
    active_power_w: float       # all cores busy
    idle_power_w: float
    is_arm: bool = True
    #: single-thread performance relative to the Snapdragon 800 reference;
    #: application cpu_ms_per_frame figures are divided by this.
    perf_index: float = 1.0


class CPUModel:
    """Tracks per-source CPU utilization and integrates power.

    Utilization is additive across named sources and clamped at 1.0; power
    interpolates linearly between idle and active draw.  Sources let the
    overhead experiment separate the game's 68% from GBooster's extra 11
    points on the Nexus 5 (§VII-G).
    """

    def __init__(self, sim: Simulator, spec: CPUSpec, name: str = ""):
        self.sim = sim
        self.spec = spec
        self.name = name or spec.name
        self._contributions: Dict[str, float] = {}
        self.utilization = Gauge(sim, 0.0, name=f"{self.name}.util")
        self.power = Gauge(sim, spec.idle_power_w, name=f"{self.name}.power")

    def set_load(self, source: str, utilization: float) -> None:
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(
                f"utilization must be in [0, 1], got {utilization}"
            )
        if utilization == 0.0:
            self._contributions.pop(source, None)
        else:
            self._contributions[source] = utilization
        total = min(1.0, sum(self._contributions.values()))
        self.utilization.set(total)
        self.power.set(
            self.spec.idle_power_w
            + (self.spec.active_power_w - self.spec.idle_power_w) * total
        )

    def load_of(self, source: str) -> float:
        return self._contributions.get(source, 0.0)

    def total_utilization(self) -> float:
        return self.utilization.value

    def mean_utilization(self) -> float:
        return self.utilization.mean()

    def energy_joules(self) -> float:
        return self.power.integral() / 1000.0


# -- CPU catalog -------------------------------------------------------------

SNAPDRAGON_800 = CPUSpec(
    name="Snapdragon 800 (Nexus 5)", clock_ghz=2.3, cores=4,
    active_power_w=2.2, idle_power_w=0.15, perf_index=1.0,
)
SNAPDRAGON_801 = CPUSpec(
    name="Snapdragon 801 (Galaxy S5)", clock_ghz=2.5, cores=4,
    active_power_w=2.3, idle_power_w=0.15, perf_index=1.08,
)
SNAPDRAGON_808 = CPUSpec(
    name="Snapdragon 808 (LG G4)", clock_ghz=1.8, cores=6,
    active_power_w=2.4, idle_power_w=0.15, perf_index=1.18,
)
SNAPDRAGON_820 = CPUSpec(
    name="Snapdragon 820 (LG G5)", clock_ghz=2.15, cores=4,
    active_power_w=2.5, idle_power_w=0.15, perf_index=1.55,
)
TEGRA_X1_CPU = CPUSpec(
    name="Tegra X1 CPU (Shield)", clock_ghz=2.0, cores=8,
    active_power_w=8.0, idle_power_w=0.5, perf_index=1.35,
)
AMLOGIC_S905 = CPUSpec(
    name="Amlogic S905 (Minix Neo U1)", clock_ghz=1.5, cores=4,
    active_power_w=4.0, idle_power_w=0.4, perf_index=0.7,
)
CORE_I7_2760QM = CPUSpec(
    name="Core i7-2760QM (Dell M4600)", clock_ghz=2.4, cores=4,
    active_power_w=45.0, idle_power_w=6.0, is_arm=False, perf_index=2.2,
)
CORE_I7_3770 = CPUSpec(
    name="Core i7-3770 (Optiplex 9010)", clock_ghz=3.4, cores=4,
    active_power_w=77.0, idle_power_w=8.0, is_arm=False, perf_index=2.6,
)
