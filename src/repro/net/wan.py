"""WAN path parameters for the planner's cloud candidate.

The OnLive-style baseline (:mod:`repro.baselines.cloud`) hard-codes the
paper's 10 Mbps / 100 ms test connection.  The multi-backend planner
needs the WAN as a *candidate* whose parameters vary per deployment —
a fiber user two hops from a rendering PoP is a very different plan
input than congested DSL — so the profile lives here and converts to
a :class:`~repro.baselines.cloud.CloudGamingModel` (for the probe's
response-time model).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WanProfile:
    """One WAN path to a cloud rendering region."""

    name: str
    rtt_ms: float = 100.0
    jitter_ms: float = 18.0
    bandwidth_mbps: float = 10.0
    loss_probability: float = 0.005

    def validate(self) -> None:
        if self.rtt_ms < 0 or self.jitter_ms < 0:
            raise ValueError(f"{self.name}: negative rtt/jitter")
        if self.bandwidth_mbps <= 0:
            raise ValueError(f"{self.name}: bandwidth must be positive")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError(f"{self.name}: loss outside [0, 1)")

    def cloud_model(self):
        from repro.baselines.cloud import CloudGamingModel

        return CloudGamingModel(
            wan_rtt_ms=self.rtt_ms,
            wan_jitter_ms=self.jitter_ms,
            wan_bandwidth_mbps=self.bandwidth_mbps,
        )


#: The paper's §VII-F test connection.
WAN_BROADBAND = WanProfile(name="broadband")
#: Short-haul fiber to a nearby rendering point of presence.
WAN_FIBER = WanProfile(
    name="fiber", rtt_ms=28.0, jitter_ms=4.0, bandwidth_mbps=200.0,
    loss_probability=0.001,
)
#: Congested last mile — the plan the planner should almost never pick.
WAN_CONGESTED = WanProfile(
    name="congested", rtt_ms=160.0, jitter_ms=45.0, bandwidth_mbps=4.0,
    loss_probability=0.02,
)
