"""Probe-and-commit plan selection with drift-triggered re-planning.

:class:`SessionPlanner` is the nebullvm-style optimizer loop: enumerate
the candidates the environment offers, probe each on a measured window,
commit to the lowest score.  :class:`ReplanController` watches the
committed plan's *live* frame latency against the probe-time baseline
through its own :class:`~repro.obs.anomaly.ResidualDriftDetector`; a
sustained drift episode triggers a fresh probe cycle (under a cooldown so
a noisy link cannot thrash plans every epoch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.anomaly import ResidualDriftDetector
from repro.obs.causal import trace_args
from repro.plan.candidates import (
    BACKEND_RADIO,
    PlanCandidate,
    SessionContext,
    enumerate_candidates,
)
from repro.plan.probe import ProbeRunner, ProbeStats

#: epochs a commit is immune to re-planning after a switch
REPLAN_COOLDOWN_EPOCHS = 20


@dataclass
class PlanDecision:
    """One committed plan plus everything that justified it."""

    backend: str
    radio: str
    scores: Dict[str, float]
    probes: Dict[str, ProbeStats]
    rejected: Dict[str, str]          # backend -> why it was not viable
    generation: int = 0               # 0 = initial commit, 1+ = replans

    def to_dict(self) -> Dict:
        return {
            "backend": self.backend,
            "radio": self.radio,
            "generation": self.generation,
            "scores": {
                k: round(self.scores[k], 6) for k in sorted(self.scores)
            },
            "probes": {
                k: self.probes[k].to_dict() for k in sorted(self.probes)
            },
            "rejected": {k: self.rejected[k] for k in sorted(self.rejected)},
        }


class SessionPlanner:
    """Enumerate -> probe -> commit for one session."""

    def __init__(self, ctx: SessionContext, seed: int = 0, sim=None):
        self.ctx = ctx
        self.seed = seed
        self.sim = sim
        self.decision: Optional[PlanDecision] = None
        self.history: List[PlanDecision] = []

    def probe_and_commit(self) -> PlanDecision:
        """Run one full probe cycle and commit the winner.

        Deterministic for a fixed ``(seed, ctx)``: candidate order is
        canonical, probe randomness is namespaced per backend, and ties
        break on the backend name.
        """
        generation = len(self.history)
        runner = ProbeRunner(
            self.ctx,
            seed=self.seed,
            telemetry=self.sim.telemetry if self.sim is not None else None,
        )
        probes: Dict[str, ProbeStats] = {}
        rejected: Dict[str, str] = {}
        for candidate in enumerate_candidates(self.ctx):
            if not candidate.viable:
                rejected[candidate.backend] = candidate.reason
                continue
            probes[candidate.backend] = runner.probe(candidate)
        if not probes:
            raise RuntimeError("no viable plan candidate for this session")
        scores = {b: p.score for b, p in probes.items()}
        backend = min(scores, key=lambda b: (scores[b], b))
        decision = PlanDecision(
            backend=backend,
            radio=BACKEND_RADIO[backend],
            scores=scores,
            probes=probes,
            rejected=rejected,
            generation=generation,
        )
        self.decision = decision
        self.history.append(decision)
        if self.sim is not None:
            self.sim.metrics.counter("plan.commits").inc()
            self.sim.metrics.counter(f"plan.commits.{backend}").inc()
            self.sim.spans.mark(
                "plan", "commit", track="planner",
                backend=backend, generation=generation,
                score=round(scores[backend], 4),
                probed=len(probes),
                **trace_args(self.sim),
            )
            if self.sim.telemetry is not None:
                self.sim.telemetry.observe(
                    "plan.commits", 1.0, agg="count", backend=backend,
                )
        return decision

    @property
    def committed_latency_ms(self) -> float:
        """The committed plan's probe-time mean latency — the drift base."""
        if self.decision is None:
            raise RuntimeError("no plan committed yet")
        return self.decision.probes[self.decision.backend].mean_latency_ms


class ReplanController:
    """Drift watchdog over the committed plan.

    Feed it the measured per-epoch frame latency; it tracks the residual
    against the probe-time baseline with an EWMA drift detector and
    re-plans when a sustained episode fires.  The caller mutates the
    shared :class:`SessionContext` as conditions change (degraded WiFi
    rate, a replay store going warm) so the re-probe sees current truth.
    """

    def __init__(
        self,
        planner: SessionPlanner,
        detector: Optional[ResidualDriftDetector] = None,
        cooldown_epochs: int = REPLAN_COOLDOWN_EPOCHS,
    ):
        self.planner = planner
        # Slow EWMA (alpha) so a step change in live latency stays
        # out-of-band long enough to satisfy ``sustain``; a fast alpha
        # absorbs the step into the baseline before the episode fires.
        self.detector = detector or ResidualDriftDetector(
            z_threshold=3.0, sustain=3, warmup=10, alpha=0.02
        )
        self.cooldown_epochs = cooldown_epochs
        self._epochs_since_commit = 0
        self.replans = 0
        self.last_residual: Optional[float] = None

    def observe_latency(
        self, measured_ms: float, at_ms: float = 0.0
    ) -> Optional[PlanDecision]:
        """One epoch's measured latency; returns a new decision on replan."""
        if self.planner.decision is None:
            self.planner.probe_and_commit()
            self._epochs_since_commit = 0
            return self.planner.decision
        self._epochs_since_commit += 1
        residual = measured_ms - self.planner.committed_latency_ms
        self.last_residual = residual
        alert = self.detector.update(residual, at_ms=at_ms)
        drifted = alert is not None and alert.severity == "warn"
        if not drifted:
            return None
        if self._epochs_since_commit < self.cooldown_epochs:
            return None
        previous = self.planner.decision.backend
        decision = self.planner.probe_and_commit()
        self._epochs_since_commit = 0
        self.replans += 1
        # A fresh detector episode: the baseline just moved.
        self.detector = ResidualDriftDetector(
            z_threshold=self.detector.z_threshold,
            sustain=self.detector.sustain,
            warmup=self.detector.warmup,
            alpha=self.detector.stats.alpha,
        )
        if self.planner.sim is not None:
            sim = self.planner.sim
            sim.metrics.counter("plan.replans").inc()
            sim.spans.mark(
                "plan", "replan", track="planner",
                from_backend=previous, to_backend=decision.backend,
                measured_ms=round(measured_ms, 3),
                **trace_args(sim),
            )
            # A replan is the planner declaring its committed world model
            # wrong — exactly the moment a postmortem is worth freezing.
            if sim.flight is not None:
                sim.flight.on_replan(
                    previous, decision.backend,
                    measured_ms=round(measured_ms, 3),
                    committed_ms=round(self.planner.committed_latency_ms, 3),
                )
        return decision
