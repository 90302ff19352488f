"""The switching controller.

Runs once per traffic epoch (100 ms): reads the network manager's latest
offered-load sample and the exogenous signal snapshot, consults the policy,
and applies the decision — waking WiFi ahead of a forecast surge, or
dropping back to Bluetooth and powering the idle radio down.  It also keeps
the bookkeeping the energy ablation reads: per-radio residency and switch
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.net.manager import NetworkManager
from repro.obs.causal import trace_args
from repro.sim.kernel import Simulator
from repro.switching.policies import SwitchDecision, SwitchingPolicy


@dataclass
class SwitchingStats:
    epochs: int = 0
    switches_to_wifi: int = 0
    switches_to_bluetooth: int = 0
    epochs_on_wifi: int = 0
    epochs_on_bluetooth: int = 0
    overload_epochs: int = 0      # demand exceeded the active radio's rate

    @property
    def bluetooth_residency(self) -> float:
        return self.epochs_on_bluetooth / self.epochs if self.epochs else 0.0


class SwitchingController:
    """Drives a :class:`NetworkManager` with a :class:`SwitchingPolicy`."""

    def __init__(
        self,
        sim: Simulator,
        manager: NetworkManager,
        policy: SwitchingPolicy,
        exogenous_source: Optional[Callable[[], Sequence[float]]] = None,
        power_down_idle: bool = True,
    ):
        self.sim = sim
        self.manager = manager
        self.policy = policy
        self.exogenous_source = exogenous_source or (lambda: ())
        self.power_down_idle = power_down_idle
        self.stats = SwitchingStats()
        self._seen = 0
        sim.every(manager.epoch_ms, self._epoch)

    def _epoch(self) -> None:
        samples = self.manager.samples_mbps()
        if len(samples) <= self._seen:
            return
        mbps = samples[-1]
        self._seen = len(samples)
        exo = list(self.exogenous_source())
        decision = self.policy.decide(mbps, exo, self.manager.active_name)
        telemetry = self.sim.telemetry
        if telemetry is not None:
            telemetry.observe(
                "net.offered_mbps", mbps,
                link=self.manager.active_name,
            )
            residual = getattr(self.policy, "last_residual", None)
            if residual is not None:
                telemetry.track_residual(residual)
        self.stats.epochs += 1
        if self.manager.active_name == "wifi":
            self.stats.epochs_on_wifi += 1
        else:
            self.stats.epochs_on_bluetooth += 1
        active_rate = self.manager.active.spec.bandwidth_mbps
        if mbps > active_rate:
            self.stats.overload_epochs += 1
            self.sim.metrics.counter("switching.overload_epochs").inc()
        if decision == SwitchDecision.WIFI:
            self.manager.use("wifi")
            self.stats.switches_to_wifi += 1
            self.sim.metrics.counter("switching.to_wifi").inc()
            if telemetry is not None:
                telemetry.observe(
                    "switching.switches", 1.0, agg="count", to="wifi",
                )
            # Traced, the switch attaches to the frame in flight: "the
            # radio came up underneath this frame".
            self.sim.spans.mark(
                "switching", "switch", track="radio",
                to="wifi", offered_mbps=round(mbps, 3),
                **trace_args(self.sim),
            )
            if self.power_down_idle:
                self.manager.power_down_idle()
        elif decision == SwitchDecision.BLUETOOTH:
            self.manager.use("bluetooth")
            self.stats.switches_to_bluetooth += 1
            self.sim.metrics.counter("switching.to_bluetooth").inc()
            if telemetry is not None:
                telemetry.observe(
                    "switching.switches", 1.0, agg="count", to="bluetooth",
                )
            self.sim.spans.mark(
                "switching", "switch", track="radio",
                to="bluetooth", offered_mbps=round(mbps, 3),
                **trace_args(self.sim),
            )
            if self.power_down_idle:
                self.manager.power_down_idle()
