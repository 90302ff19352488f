"""The user device's network manager: routing across two radios.

Owns the Bluetooth and WiFi interfaces and exposes the *active route* that
transports consult per message.  The switching controller (in
:mod:`repro.switching`) tells the manager which interface should carry
traffic; the manager handles wake sequencing so a route change to a
sleeping WiFi radio first wakes it while traffic continues to queue.
It also samples per-epoch traffic volume — the time series the ARMA/ARMAX
predictors consume (§V-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.interface import (
    BLUETOOTH_CLASSIC,
    WIFI_80211N,
    RadioSpec,
    WirelessInterface,
)
from repro.sim.kernel import Simulator


@dataclass
class TrafficSample:
    """Traffic observed in one sampling epoch."""

    time_ms: float
    bytes: int

    @property
    def mbps(self) -> float:
        return 0.0  # filled by manager, epoch length needed; see samples_mbps


class NetworkManager:
    """Dual-radio routing with traffic accounting."""

    def __init__(
        self,
        sim: Simulator,
        wifi_spec: RadioSpec = WIFI_80211N,
        bt_spec: RadioSpec = BLUETOOTH_CLASSIC,
        name: str = "netman",
        epoch_ms: float = 100.0,
    ):
        self.sim = sim
        self.name = name
        self.epoch_ms = epoch_ms
        self.wifi = WirelessInterface(sim, wifi_spec, name=f"{name}.wifi")
        self.bluetooth = WirelessInterface(sim, bt_spec, name=f"{name}.bt")
        self.active_name = "wifi"
        self._route_token = 0
        self.switch_log: List[Tuple[float, str]] = []
        self.traffic_samples: List[TrafficSample] = []
        self._epoch_bytes = 0
        sim.call_later(0.0, self._next_sample)

    # -- routing ----------------------------------------------------------------

    @property
    def active(self) -> WirelessInterface:
        return self.wifi if self.active_name == "wifi" else self.bluetooth

    def interfaces(self) -> Dict[str, WirelessInterface]:
        return {"wifi": self.wifi, "bluetooth": self.bluetooth}

    def radio_provider(self) -> WirelessInterface:
        """The callable handed to transports: resolves the route per message."""
        return self.active

    def account(self, size_bytes: int) -> None:
        """Record offered traffic for the prediction time series."""
        self._epoch_bytes += size_bytes

    def use(self, interface_name: str) -> None:
        """Switch the default route, waking the target radio first.

        Follows the paper's sequencing ("turns on the WiFi interface and
        then configures the default route"): if the target radio is asleep
        it is woken, and the route only flips once it is usable — traffic
        keeps flowing on the current radio in the meantime.  The switch
        latency therefore only hurts when the *current* radio is already
        overloaded, which is exactly the false-negative penalty of §V-B.
        """
        if interface_name not in ("wifi", "bluetooth"):
            raise ValueError(f"unknown interface {interface_name!r}")
        # Any new request supersedes a pending flip, including a request to
        # stay where we are (the policy changed its mind mid-wake).
        self._route_token += 1
        token = self._route_token
        if interface_name == self.active_name:
            return
        target = self.interfaces()[interface_name]
        if target.is_on:
            self._apply_route(interface_name)
            return
        usable = target.power_on()
        # After a zero-time start hop, wait for the radio.
        self.sim.call_later(
            0.0, usable.on_trigger, self._flip, token, interface_name
        )

    def _flip(self, token: int, interface_name: str) -> None:
        # A newer use() call supersedes this pending flip.
        if self._route_token == token:
            self._apply_route(interface_name)

    def _apply_route(self, interface_name: str) -> None:
        self.active_name = interface_name
        self.switch_log.append((self.sim.now, interface_name))
        self.sim.spans.mark(
            "netman", "switch", manager=self.name, to=interface_name
        )

    def power_down_idle(self) -> None:
        """Turn off whichever radio is not carrying the route."""
        for name, radio in self.interfaces().items():
            if name != self.active_name and radio.is_on:
                radio.power_off()

    # -- traffic sampling -----------------------------------------------------------

    def _next_sample(self) -> None:
        # Read per epoch: a session sets ``epoch_ms`` after construction.
        self.sim.call_later(self.epoch_ms, self._sample)

    def _sample(self) -> None:
        self.traffic_samples.append(
            TrafficSample(time_ms=self.sim.now, bytes=self._epoch_bytes)
        )
        self._epoch_bytes = 0
        self._next_sample()

    def samples_mbps(self) -> List[float]:
        """Per-epoch offered load in Mbps."""
        factor = 8.0 / (self.epoch_ms * 1000.0)  # bytes/epoch -> Mbit/s
        return [s.bytes * factor for s in self.traffic_samples]

    def energy_joules(self) -> float:
        return self.wifi.energy_joules() + self.bluetooth.energy_joules()
