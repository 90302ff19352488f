"""Interface selection policies."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol, Sequence

from repro.predict.armax import ARMAXModel

#: Usable Bluetooth application throughput, Mbps (paper: ~21 Mbps link
#: rate; leave headroom for protocol overhead before declaring a surge).
BLUETOOTH_THRESHOLD_MBPS = 16.0
#: Traffic sampling and switching-decision period, ms (§V-B).
TRAFFIC_EPOCH_MS = 100.0
#: ARMAX forecast horizon, ms: covers the 100–500 ms WiFi wakeup (§V-B).
PREDICTION_HORIZON_MS = 500.0


class SwitchDecision(enum.Enum):
    WIFI = "wifi"
    BLUETOOTH = "bluetooth"
    HOLD = "hold"


class SwitchingPolicy(Protocol):
    """Consulted once per traffic epoch."""

    def decide(
        self,
        epoch_mbps: float,
        exogenous: Sequence[float],
        current: str,
    ) -> SwitchDecision:
        ...


class AlwaysWifiPolicy:
    """Optimization disabled: WiFi carries everything (Fig 6(b) baseline)."""

    def decide(
        self, epoch_mbps: float, exogenous: Sequence[float], current: str
    ) -> SwitchDecision:
        return SwitchDecision.WIFI if current != "wifi" else SwitchDecision.HOLD


class AlwaysBluetoothPolicy:
    """Throughput-blind lower bound; surges overflow the BT queue."""

    def decide(
        self, epoch_mbps: float, exogenous: Sequence[float], current: str
    ) -> SwitchDecision:
        return (
            SwitchDecision.BLUETOOTH
            if current != "bluetooth"
            else SwitchDecision.HOLD
        )


class ReactivePolicy:
    """Switch to WiFi only once observed demand already exceeds Bluetooth.

    The wakeup latency (100–500 ms) is paid *during* the surge: packets
    queue behind the waking radio, which is the frame-jitter failure mode
    the paper's predictive design exists to avoid.
    """

    def __init__(
        self,
        threshold_mbps: float = BLUETOOTH_THRESHOLD_MBPS,
        cooldown_epochs: int = 20,
    ):
        self.threshold_mbps = threshold_mbps
        self.cooldown_epochs = cooldown_epochs
        self._quiet_epochs = 0

    def decide(
        self, epoch_mbps: float, exogenous: Sequence[float], current: str
    ) -> SwitchDecision:
        if epoch_mbps > self.threshold_mbps:
            self._quiet_epochs = 0
            return (
                SwitchDecision.WIFI if current != "wifi" else SwitchDecision.HOLD
            )
        self._quiet_epochs += 1
        if current == "wifi" and self._quiet_epochs >= self.cooldown_epochs:
            return SwitchDecision.BLUETOOTH
        return SwitchDecision.HOLD


class PlannerPolicy:
    """Radio selection delegated to a committed execution plan (repro.plan).

    Where the other policies reason about *traffic*, this one reasons
    about the whole plan: a :class:`~repro.plan.planner.SessionPlanner`
    has probed every viable backend and committed to one, and the radio
    follows the committed backend through ``BACKEND_RADIO``.  Each epoch
    the policy feeds the session's measured frame latency (from
    ``latency_source``, typically the telemetry bank's
    ``frame_response_ms`` series) to the plan's drift watchdog; a
    sustained departure from the probe-time baseline re-plans, and the
    radio follows the new commitment on the next epoch.
    """

    def __init__(
        self,
        planner,
        latency_source: Optional[Callable[[], Optional[float]]] = None,
        controller=None,
    ):
        # Local import: repro.switching stays importable without pulling
        # the planner stack (and its codec/apps dependencies) eagerly.
        from repro.plan.planner import ReplanController

        self.planner = planner
        self.controller = controller or ReplanController(planner)
        self.latency_source = latency_source
        self._epochs = 0
        #: latest latency residual vs the committed plan's probed baseline;
        #: the switching controller forwards it to telemetry.track_residual
        self.last_residual: Optional[float] = None

    def decide(
        self, epoch_mbps: float, exogenous: Sequence[float], current: str
    ) -> SwitchDecision:
        self._epochs += 1
        if self.planner.decision is None:
            self.planner.probe_and_commit()
        measured = (
            self.latency_source() if self.latency_source is not None else None
        )
        if measured is not None:
            self.controller.observe_latency(
                measured, at_ms=self._epochs * TRAFFIC_EPOCH_MS
            )
            self.last_residual = self.controller.last_residual
        radio = self.planner.decision.radio
        if radio == current:
            return SwitchDecision.HOLD
        return (
            SwitchDecision.WIFI
            if radio == "wifi"
            else SwitchDecision.BLUETOOTH
        )


class PredictivePolicy:
    """The paper's ARMAX-driven predictive switcher.

    Each epoch the model ingests the traffic sample plus the selected
    exogenous attributes (touch frequency and textures per frame, the AIC
    winners) and forecasts ``horizon_epochs`` ahead (500 ms at the paper's
    settings).  A forecast surge wakes WiFi before demand arrives; traffic
    falls back to Bluetooth only after both forecast and observation stay
    clear of the threshold for a cooldown.
    """

    def __init__(
        self,
        n_inputs: int = 2,
        threshold_mbps: float = BLUETOOTH_THRESHOLD_MBPS,
        horizon_epochs: int = int(PREDICTION_HORIZON_MS / TRAFFIC_EPOCH_MS),
        p: int = 3,
        q: int = 2,
        b: int = 2,
        cooldown_epochs: int = 20,
        warmup_epochs: int = 30,
    ):
        self.model = ARMAXModel(p=p, q=q, b=b, n_inputs=n_inputs)
        self.threshold_mbps = threshold_mbps
        self.horizon_epochs = horizon_epochs
        self.cooldown_epochs = cooldown_epochs
        self.warmup_epochs = warmup_epochs
        self._quiet_epochs = 0
        self.forecasts: List[List[float]] = []
        #: latest one-step-ahead RLS residual; the telemetry layer's
        #: drift detector reads this after every epoch
        self.last_residual: Optional[float] = None

    def decide(
        self, epoch_mbps: float, exogenous: Sequence[float], current: str
    ) -> SwitchDecision:
        self.last_residual = self.model.observe(epoch_mbps, list(exogenous))
        if self.model.observations < self.warmup_epochs:
            # Cold model: be conservative, keep WiFi up.
            return (
                SwitchDecision.WIFI if current != "wifi" else SwitchDecision.HOLD
            )
        forecast = self.model.forecast(self.horizon_epochs)
        self.forecasts.append(forecast)
        surge_ahead = any(f > self.threshold_mbps for f in forecast)
        surge_now = epoch_mbps > self.threshold_mbps
        if surge_ahead or surge_now:
            self._quiet_epochs = 0
            return (
                SwitchDecision.WIFI if current != "wifi" else SwitchDecision.HOLD
            )
        self._quiet_epochs += 1
        if current == "wifi" and self._quiet_epochs >= self.cooldown_epochs:
            return SwitchDecision.BLUETOOTH
        return SwitchDecision.HOLD
