"""GBooster configuration: every design decision as a switch.

The defaults reproduce the paper's system; the ablation benchmarks flip
individual switches (cache off, compression off, TCP transport, reactive
or always-WiFi switching, blocking SwapBuffer, round-robin dispatch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.faults.schedule import FaultSchedule


@dataclass
class GBoosterConfig:
    # -- traffic-reduction pipeline (§V-A) --------------------------------
    cache_enabled: bool = True
    cache_capacity: int = 4096
    compression_enabled: bool = True
    #: long sessions reuse a periodically re-measured compression ratio
    #: instead of compressing every frame's bytes in-process.
    modelled_compression: bool = True
    #: command-stream "compilation" (repro.codec.fusion): drop redundant
    #: state setters before serialization.  Off by default so every
    #: pre-planner benchmark byte count is unchanged; the planner enables
    #: it on committed offload plans.
    fusion_enabled: bool = False

    # -- transport (§IV-B) ---------------------------------------------------
    transport: str = "rudp"            # "rudp" | "tcp"
    rto_ms: float = 30.0

    # -- interface switching (§V-B) ---------------------------------------------
    switching_policy: str = "predictive"   # "predictive" | "reactive" |
                                           # "always_wifi" | "always_bluetooth"
                                           # | "planner"
    bluetooth_threshold_mbps: float = 16.0
    prediction_horizon_ms: float = 500.0
    traffic_epoch_ms: float = 100.0

    # -- multi-backend planner (repro.plan) ----------------------------------------
    #: probe-window length per candidate backend, in modelled frames
    planner_probe_frames: int = 12
    #: epochs a commit is immune to re-planning after a switch
    planner_cooldown_epochs: int = 20
    #: relative score weights: measured frame latency, uplink bytes, energy
    planner_latency_weight: float = 1.0
    planner_bytes_weight: float = 0.05
    planner_energy_weight: float = 0.1

    # -- SwapBuffer rewriting / pipelining (§VI-A) ----------------------------------
    async_swap: bool = True
    #: in-flight frames with the rewritten non-blocking SwapBuffer; the
    #: paper observes the internal buffer holds at most 3 requests.
    pipeline_depth_multi: int = 3
    pipeline_depth_single: int = 3
    #: blocking-swap ablation allows exactly one outstanding request.
    pipeline_depth_blocking: int = 1

    # -- dispatch (§VI-C) ------------------------------------------------------------
    scheduler: str = "eq4"             # "eq4" | "round_robin"

    # -- adaptive quality (rendering adaptation, cf. paper ref [48]) -----------------
    #: when enabled the client scales the offload render resolution down
    #: under congestion (completion latency above the high watermark) and
    #: back up when the pipeline has headroom, trading sharpness for frame
    #: rate the way cloud-gaming stacks do.
    adaptive_quality: bool = False
    adaptive_latency_high_ms: float = 55.0
    adaptive_latency_low_ms: float = 32.0
    adaptive_min_scale: float = 0.5

    # -- failure handling --------------------------------------------------------------
    #: a frame unanswered for this long marks its service device failed;
    #: the request re-dispatches to a surviving node (or the local GPU when
    #: none remains) so gameplay degrades instead of freezing.
    frame_timeout_ms: float = 1_000.0
    #: declarative fault scenario (node crashes, link outages, loss bursts,
    #: radio degradation) armed on the session's simulator by the runner —
    #: see :mod:`repro.faults`.
    faults: Optional[FaultSchedule] = None

    # -- correctness checking (repro.check) ---------------------------------------------
    #: arm the runtime invariant monitor and per-frame command digests on
    #: the session (differential replay / conservation laws); small constant
    #: overhead, off by default in experiments.
    check: bool = False
    #: make frame content a pure function of (seed, frame index): fixed
    #: vsync dt and scripted per-frame touches instead of wall-time-coupled
    #: scene advance.  Required for local-vs-offload digest comparison,
    #: where the two paths pace frames differently.
    deterministic_content: bool = False

    # -- telemetry / SLOs (repro.obs.telemetry) ------------------------------------------
    #: arm a :class:`~repro.obs.telemetry.TelemetryHub` on the session's
    #: simulator: streaming time-series, burn-rate SLO evaluation and
    #: prediction-drift alerts.  Off by default; feeds cost one attribute
    #: load each when unarmed.
    telemetry: bool = False
    #: override the default session SLO set (a sequence of
    #: :class:`~repro.obs.slo.SloSpec`); ``None`` arms
    #: :func:`~repro.obs.telemetry.default_session_slos`.
    slos: Optional[object] = None
    #: arm a :class:`~repro.obs.causal.CausalLog` on the session's
    #: simulator: every frame carries a deterministic wire-propagated
    #: trace context (8 header bytes, charged to uplink accounting) and
    #: components record causal events against it.  Off by default —
    #: untraced runs keep byte-identical wire counts and artifacts.
    causal_tracing: bool = False
    #: arm a :class:`~repro.obs.flight.FlightRecorder`: page-severity SLO
    #: alerts, invariant violations and replans freeze schema-versioned
    #: postmortem bundles.  Usually armed together with causal tracing so
    #: bundles carry the triggering frame's causal trace.
    flight_recorder: bool = False

    # -- record-once / replay-many fast path (repro.replay) -----------------------------
    #: serve recurring command intervals from the content-addressed replay
    #: store: recording sessions deposit intervals, later sessions of the
    #: same title ship only the interval digest + a dynamic-delta patch.
    replay: bool = False
    #: per-title byte budget of the replay store (LRU + refcount eviction)
    replay_store_bytes: int = 4 << 20

    # -- multi-user service scheduling (§VIII future work, implemented) --------------
    #: "fcfs" is the paper's prototype; "priority" serves time-critical
    #: applications (fast-paced games) ahead of queued requests from
    #: turn-based ones.
    service_queue_policy: str = "fcfs"

    def pipeline_depth(self, n_devices: int) -> int:
        if not self.async_swap:
            return self.pipeline_depth_blocking
        if n_devices > 1:
            return self.pipeline_depth_multi
        return self.pipeline_depth_single

    def validate(self) -> None:
        if self.transport not in ("rudp", "tcp"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.switching_policy not in (
            "predictive", "reactive", "always_wifi", "always_bluetooth",
            "planner",
        ):
            raise ValueError(
                f"unknown switching policy {self.switching_policy!r}"
            )
        if self.planner_probe_frames <= 0:
            raise ValueError("planner_probe_frames must be positive")
        if self.planner_cooldown_epochs < 0:
            raise ValueError("planner_cooldown_epochs must be non-negative")
        if self.scheduler not in ("eq4", "round_robin"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.service_queue_policy not in ("fcfs", "priority"):
            raise ValueError(
                f"unknown service queue policy {self.service_queue_policy!r}"
            )
        if self.cache_capacity <= 0:
            raise ValueError("cache_capacity must be positive")
        if self.replay_store_bytes <= 0:
            raise ValueError("replay_store_bytes must be positive")
        if self.faults is not None:
            self.faults.validate()
