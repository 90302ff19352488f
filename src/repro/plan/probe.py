"""The probe-window evaluator: measure each candidate, don't guess.

For every viable candidate the probe models a short window of frames
(``config.planner_probe_frames``) and *records the measurements* into the
:mod:`repro.obs` time-series machinery — the same bank the SLO engine and
drift detector read — then scores the candidate from what landed in the
series.  Uplink bytes are not modelled at all: the probe runs the app's
actual command batches through a real :class:`CommandPipeline` (fusion
pass included when the plan transmits fused streams), so the byte column
in a plan decision is the same accounting the session would produce.

Everything is seeded through :class:`~repro.sim.random.RandomStream`
namespaces derived from ``(seed, backend)``, so a probe is byte-identical
across runs, worker counts and probe orderings.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.pipeline_model import (
    predict_local_fps,
    predict_offload,
    predict_service_stage_ms,
)
from repro.apps.base import CommandBatchBuilder, SceneState
from repro.codec.pipeline import (
    REPLAY_HEADER_BYTES,
    CommandPipeline,
    PipelineConfig,
)
from repro.core import costs
from repro.obs.timeseries import TimeSeriesBank
from repro.plan.candidates import PlanCandidate, SessionContext
from repro.sim.random import RandomStream

# -- energy model (milliwatts, reference phone SoC/radio figures) ------------
#: WiFi transmit draw at full rate (§V-B: ~2 W) and its idle/listen floor
_WIFI_TX_MW = 2000.0
_WIFI_IDLE_MW = 280.0
#: Bluetooth draw (<0.1 W active)
_BT_TX_MW = 95.0
_BT_IDLE_MW = 18.0
#: local render draw: GPU at full tilt plus the game's CPU load
_GPU_ACTIVE_MW = 1400.0
_CPU_ACTIVE_MW = 600.0
#: residual client CPU while offloading (decode + dispatch)
_CPU_OFFLOAD_MW = 260.0
#: cloud gaming keeps the WiFi radio in receive for the video stream
_WIFI_RX_MW = 950.0
#: WAN uplink: input events only
_WAN_INPUT_BYTES = 160
#: multicast adds a small group-sync overhead per frame
_MULTICAST_SYNC_MS = 1.2

#: plan score weights: per ms of frame latency, KiB of uplink, watt
LATENCY_WEIGHT = 1.0
BYTES_WEIGHT = 0.05
ENERGY_WEIGHT = 0.1


@dataclass
class ProbeStats:
    """Measured summary of one candidate's probe window."""

    backend: str
    frames: int
    mean_latency_ms: float
    worst_latency_ms: float
    mean_uplink_bytes: float
    mean_energy_mw: float
    score: float
    fused_dropped: int = 0

    def to_dict(self) -> Dict:
        return {
            "backend": self.backend,
            "frames": self.frames,
            "mean_latency_ms": round(self.mean_latency_ms, 4),
            "worst_latency_ms": round(self.worst_latency_ms, 4),
            "mean_uplink_bytes": round(self.mean_uplink_bytes, 2),
            "mean_energy_mw": round(self.mean_energy_mw, 2),
            "score": round(self.score, 6),
            "fused_dropped": self.fused_dropped,
        }


class ProbeRunner:
    """Evaluates candidates for one session context."""

    def __init__(
        self,
        ctx: SessionContext,
        seed: int = 0,
        bank: Optional[TimeSeriesBank] = None,
        telemetry=None,
    ):
        self.ctx = ctx
        self.seed = seed
        #: probe measurements live in an obs time-series bank; a 1 ms
        #: window puts every probe frame in its own window, so the score
        #: reads true per-frame samples rather than a sliding aggregate.
        #: A runner is single-use: the planner builds a fresh one for each
        #: probe cycle so replans never read a stale series.
        self.bank = bank or TimeSeriesBank(window_ms=1.0)
        self.telemetry = telemetry
        self._wire_cache: Dict[bool, List[Dict[str, float]]] = {}

    # -- measured uplink bytes ---------------------------------------------

    def _frame_wire(self, fused: bool) -> List[Dict[str, float]]:
        """Per-frame wire accounting from a real egress pipeline run.

        Returns one dict per probe frame with ``wire_bytes`` (nominal-
        stream scaled, like the client does), ``raw_bytes`` and
        ``fused_dropped``.  Cached per fusion setting — the local and
        offload candidates share the unfused run.
        """
        if fused in self._wire_cache:
            return self._wire_cache[fused]
        ctx = self.ctx
        rng = RandomStream(self.seed, f"plan.probe.stream.{int(fused)}")
        builder = CommandBatchBuilder(ctx.app, rng)
        scene = SceneState()
        pipeline = CommandPipeline(PipelineConfig(
            cache_enabled=ctx.config.cache_enabled,
            cache_capacity=ctx.config.cache_capacity,
            compression_enabled=ctx.config.compression_enabled,
            modelled_compression=False,
            fusion_enabled=fused,
        ))
        frames: List[Dict[str, float]] = []
        setup = builder.setup_commands()
        pipeline.process_frame(setup, frame_id=0)
        dt = 1.0 / ctx.app.target_fps
        for i in range(ctx.config.planner_probe_frames):
            if i % 7 == 3:
                scene.on_touch(0.8)
            scene.advance(dt)
            batch = builder.frame_commands(scene)
            egress = pipeline.process_frame(batch, frame_id=i + 1)
            emitted = egress.commands + egress.fused_dropped
            scale = ctx.app.nominal_commands_per_frame / max(1, emitted)
            frames.append({
                "wire_bytes": max(64.0, egress.wire_bytes * scale),
                "raw_bytes": egress.raw_bytes * scale,
                "fused_dropped": float(egress.fused_dropped),
            })
        self._wire_cache[fused] = frames
        return frames

    # -- per-backend frame models ------------------------------------------

    def _probe_frames(self, backend: str) -> List[Dict[str, float]]:
        """One (latency, uplink, energy) sample per probe frame."""
        ctx = self.ctx
        app, config = ctx.app, ctx.config
        rng = RandomStream(self.seed, f"plan.probe.{backend}")
        interval = 1000.0 / app.target_fps
        out: List[Dict[str, float]] = []

        if backend == "local":
            base = 1000.0 / predict_local_fps(app, ctx.user_device)
            fill_ms = (
                app.fill_mp_per_frame / ctx.user_device.gpu.fillrate_gpixels
            )
            busy = min(1.0, fill_ms / max(base, 1e-9))
            for _ in range(config.planner_probe_frames):
                latency = base * (1.0 + 0.04 * rng.random())
                energy = _CPU_ACTIVE_MW + _GPU_ACTIVE_MW * busy + _BT_IDLE_MW
                out.append({
                    "latency_ms": latency, "uplink_bytes": 0.0,
                    "energy_mw": energy,
                })
            return out

        if backend == "wan":
            model = ctx.wan.cloud_model()
            video_bytes = model.per_frame_bytes()
            rx_ms = video_bytes * 8 / (ctx.wifi_mbps * 1000.0)
            duty = min(1.0, rx_ms / interval)
            for _ in range(config.planner_probe_frames):
                jitter = rng.exponential(ctx.wan.jitter_ms / 2.0)
                latency = model.response_time_ms(app, jitter_ms=jitter)
                energy = (
                    _CPU_OFFLOAD_MW
                    + _WIFI_RX_MW * (0.4 + 0.6 * duty)
                    + _WIFI_IDLE_MW
                )
                out.append({
                    "latency_ms": latency,
                    "uplink_bytes": float(_WAN_INPUT_BYTES),
                    "energy_mw": energy,
                })
            return out

        # LAN offload family: bt / wifi / replay / multicast.
        fused = ctx.fusion_enabled
        wire = self._frame_wire(fused)
        pred = predict_offload(
            app, ctx.user_device, ctx.service_device, config=config
        )
        service_ms = pred.service_stage_ms
        if backend == "replay":
            # GPUReplay-style serve: the pinned interval skips decompress +
            # per-command replay (and x86 translation); fill + encode stay.
            full = predict_service_stage_ms(app, ctx.service_device)
            decode_side = costs.decode_ms(
                ctx.service_device.cpu, app.nominal_commands_per_frame
            )
            service_ms = max(0.1, full - decode_side) + costs.REPLAY_HIT_MS
        if backend == "multicast":
            service_ms += _MULTICAST_SYNC_MS

        if backend == "bt":
            mbps, link_rtt_ms = ctx.bt_mbps, 2 * 4.0
            tx_mw, idle_mw = _BT_TX_MW, _BT_IDLE_MW
            loss = 0.004
        else:
            mbps, link_rtt_ms = ctx.wifi_mbps, 2 * 1.5
            tx_mw, idle_mw = _WIFI_TX_MW, _WIFI_IDLE_MW
            loss = ctx.wifi_loss

        for i in range(config.planner_probe_frames):
            bytes_up = wire[i]["wire_bytes"]
            if backend == "replay":
                bytes_up = REPLAY_HEADER_BYTES + max(
                    48.0, 0.04 * wire[i]["wire_bytes"]
                )
            if backend == "multicast":
                # One multicast stream serves every co-located viewer.
                bytes_up = bytes_up / ctx.colocated_viewers
            tx_ms = bytes_up * 8 / (mbps * 1000.0)
            retx_ms = loss * config.rto_ms
            stage = max(
                pred.cpu_stage_ms,
                service_ms,
                (link_rtt_ms + service_ms + tx_ms)
                / config.pipeline_depth(),
                interval,
            )
            latency = stage + tx_ms + retx_ms + 0.5 * rng.random()
            duty = min(1.0, tx_ms / interval)
            energy = _CPU_OFFLOAD_MW + idle_mw + tx_mw * duty
            out.append({
                "latency_ms": latency,
                "uplink_bytes": bytes_up,
                "energy_mw": energy,
                "fused_dropped": wire[i].get("fused_dropped", 0.0),
            })
        return out

    # -- scoring ------------------------------------------------------------

    def probe(self, candidate: PlanCandidate) -> ProbeStats:
        """Measure one candidate and score it from the recorded series."""
        backend = candidate.backend
        interval = 1000.0 / self.ctx.app.target_fps
        samples = self._probe_frames(backend)
        for i, s in enumerate(samples):
            t_ms = i * interval
            for name, key in (
                ("plan.frame_ms", "latency_ms"),
                ("plan.uplink_bytes", "uplink_bytes"),
                ("plan.energy_mw", "energy_mw"),
            ):
                self.bank.series(name, agg="mean", backend=backend).record(
                    t_ms, s[key]
                )
                if self.telemetry is not None:
                    self.telemetry.observe(name, s[key], backend=backend)

        def measured(name: str) -> List[float]:
            series = self.bank.series(name, agg="mean", backend=backend)
            return [v for _, v in series.points()]

        lat = measured("plan.frame_ms")
        up = measured("plan.uplink_bytes")
        mw = measured("plan.energy_mw")
        score = (
            LATENCY_WEIGHT * statistics.fmean(lat)
            + BYTES_WEIGHT * statistics.fmean(up) / 1024.0
            + ENERGY_WEIGHT * statistics.fmean(mw) / 1000.0
        )
        return ProbeStats(
            backend=backend,
            frames=len(samples),
            mean_latency_ms=statistics.fmean(lat),
            worst_latency_ms=max(lat),
            mean_uplink_bytes=statistics.fmean(up),
            mean_energy_mw=statistics.fmean(mw),
            score=score,
            fused_dropped=int(sum(s.get("fused_dropped", 0.0) for s in samples)),
        )
