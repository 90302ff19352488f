"""GBooster configuration: the switches experiments and tests flip.

The defaults reproduce the paper's system; the ablation benchmarks flip
individual switches (cache off, compression off, TCP transport, reactive
or always-WiFi switching, blocking SwapBuffer, round-robin dispatch) and
sessions arm the observation, checking and replay layers.  A value the
paper fixes and no experiment varies (the switching threshold, epoch and
horizon, the planner weights, the SwapBuffer depth) is a module constant
beside its reader instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.faults.schedule import FaultSchedule

#: in-flight frames with the rewritten non-blocking SwapBuffer: the paper
#: observes its internal buffer holds at most 3 requests (§VI-A), with one
#: service device or several.
ASYNC_SWAP_DEPTH = 3


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

    # -- multi-backend planner (repro.plan) ----------------------------------------
    #: probe-window length per candidate backend, in modelled frames
    planner_probe_frames: int = 12

    # -- SwapBuffer rewriting / pipelining (§VI-A) ----------------------------------
    #: the rewritten non-blocking SwapBuffer; off is the blocking-swap
    #: ablation (see :meth:`pipeline_depth`)
    async_swap: bool = True

    # -- dispatch (§VI-C) ------------------------------------------------------------
    scheduler: str = "eq4"             # "eq4" | "round_robin"

    # -- adaptive quality (rendering adaptation, cf. paper ref [48]) -----------------
    #: when enabled the client scales the offload render resolution down
    #: under congestion (completion latency above the high watermark) and
    #: back up when the pipeline has headroom, trading sharpness for frame
    #: rate the way cloud-gaming stacks do.
    adaptive_quality: bool = False
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
    #: the span-ring rows of its journey carry its trace id.  Off by
    #: default — untraced runs keep byte-identical wire counts and
    #: artifacts.
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

    # -- multi-user service scheduling (§VIII future work, implemented) --------------
    #: "fcfs" is the paper's prototype; "priority" serves time-critical
    #: applications (fast-paced games) ahead of queued requests from
    #: turn-based ones.
    service_queue_policy: str = "fcfs"

    def pipeline_depth(self) -> int:
        """Frames in flight: the rewritten SwapBuffer's queue bound, or
        one outstanding request with the blocking swap."""
        return ASYNC_SWAP_DEPTH if self.async_swap else 1

    def validate(self) -> None:
        if self.transport not in ("rudp", "tcp"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if not (math.isfinite(self.rto_ms) and self.rto_ms > 0):
            raise ValueError(
                f"rto_ms must be finite and positive, got {self.rto_ms!r}"
            )
        if self.switching_policy not in (
            "predictive", "reactive", "always_wifi", "always_bluetooth",
            "planner",
        ):
            raise ValueError(
                f"unknown switching policy {self.switching_policy!r}"
            )
        if self.planner_probe_frames <= 0:
            raise ValueError("planner_probe_frames must be positive")
        if self.scheduler not in ("eq4", "round_robin"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.service_queue_policy not in ("fcfs", "priority"):
            raise ValueError(
                f"unknown service queue policy {self.service_queue_policy!r}"
            )
        if self.cache_capacity <= 0:
            raise ValueError("cache_capacity must be positive")
        if self.faults is not None:
            self.faults.validate()
