"""One fleet run: build the controller, launch the arrivals, serve to the horizon.

Every fleet experiment runs through :class:`FleetRun`:
``run_fleet_point`` (a uniform launch wave), ``run_capacity_point`` (an
arrival curve's offsets), the replay bench's warm wave (with its own
horizon), and each shard of a partitioned run.  :class:`ShardWorker` is
that partitioned case: the same run on a shard's slice of the pool and
the wave, stepped in coordinator windows (``repro.sim.shard``), so a
one-shard run is the single-kernel run, not a copy of it.

Arrivals are callbacks.  The first is queued at the wave start; each
one, when it fires, submits its request and every later request due at
the same instant, then queues the next.  An arrival's ``after_ms``
counts from the previous arrival (the first from the wave start), so
times accumulate as ``now + after_ms``.  A partitioned run with
arrival-curve offsets anchors the wave at an epoch instead: arrival
``i`` fires at the literal ``epoch + offset[i]``, the same float in
every shard whatever the shard's bootstrap time or the sessions it
owns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.apps.base import ApplicationSpec
from repro.devices.profiles import DeviceSpec
from repro.fleet.config import FleetConfig
from repro.fleet.controller import (
    DISCOVERY_ROUNDS,
    DISCOVERY_TIMEOUT_MS,
    FleetController,
)
from repro.fleet.session import SessionRequest
from repro.obs.merge import span_bank
from repro.sim.kernel import Simulator
from repro.sim.shard import BarrierReport, ShardResult


class Arrival(NamedTuple):
    """One session request of a launch wave."""

    #: ms after the previous arrival (the first: after the wave start);
    #: in an epoch-anchored wave, ms after the epoch
    after_ms: float
    session_id: str
    app: ApplicationSpec


class FleetRun:
    """A fleet controller over ``pool``, bootstrapped, with its wave queued.

    The horizon is ``wave start + spread + 2 x duration + 5 s``: queued
    sessions start only as earlier ones finish, so it covers the launch
    wave, two full session lengths and detection slack.  ``horizon_ms``
    replaces it with an absolute time.

    Every run ends in :meth:`close`, after its report is read.  A closed
    run holds no reference cycle, so refcounting frees it whole; its
    simulator is torn down, and a torn-down simulator cannot run again.
    """

    def __init__(
        self,
        sim: Simulator,
        pool: Sequence[DeviceSpec],
        config: FleetConfig,
        duration_ms: float,
        arrivals: Sequence[Arrival],
        spread_ms: float = 0.0,
        epoch_ms: Optional[float] = None,
        horizon_ms: Optional[float] = None,
    ):
        self.sim = sim
        self.controller = FleetController(sim, pool, config)
        self.controller.set_session_duration(duration_ms)
        sim.run_until_event(self.controller.bootstrapped, limit=60_000.0)
        self.duration_ms = duration_ms
        self.spread_ms = spread_ms
        self.wave_start_ms = sim.now if epoch_ms is None else epoch_ms
        self._epoch_ms = epoch_ms
        self._arrivals = arrivals
        self.arrivals_done = False
        sim.call_later(0.0, self._arrive, 0, False)
        self.horizon_ms = (
            self.horizon(2.0) if horizon_ms is None else horizon_ms
        )

    def horizon(self, session_lengths: float) -> float:
        """The wave start and spread, ``session_lengths`` sessions, 5 s."""
        return (
            self.wave_start_ms
            + self.spread_ms
            + session_lengths * self.duration_ms
            + 5_000.0
        )

    def _arrive(self, i: int, due: bool) -> None:
        """Submit arrival ``i`` once due, and every later one due now;
        queue the first that is not."""
        arrivals = self._arrivals
        sim = self.sim
        while i < len(arrivals):
            after_ms, session_id, app = arrivals[i]
            if not due:
                if self._epoch_ms is None:
                    if after_ms > 0:
                        sim.call_later(after_ms, self._arrive, i, True)
                        return
                elif self._epoch_ms + after_ms > sim.now:
                    sim.call_at(
                        self._epoch_ms + after_ms, self._arrive, i, True
                    )
                    return
            due = False
            self.controller.submit(
                SessionRequest(session_id, app, arrival_ms=sim.now)
            )
            i += 1
        self.arrivals_done = True

    def run(self) -> Dict:
        """Serve to the horizon; the controller's final report."""
        self.sim.run(until=self.horizon_ms)
        return self.report()

    def report(self) -> Dict:
        """Finalize the invariant monitor, if armed; the controller's report."""
        if self.controller.monitor is not None:
            self.controller.monitor.finalize()
        return self.controller.report()

    @property
    def invariant_violations(self) -> int:
        monitor = self.controller.monitor
        return len(monitor.violations) if monitor is not None else 0

    def close(self) -> None:
        """Tear the simulator down, so refcounting frees the whole run.

        Read the report, digests and invariant count first: a torn-down
        simulator cannot run again, and each component drops the edges
        it wired (``Simulator.on_teardown``).  Recorded spans and metrics
        stay readable.
        """
        self.sim.teardown()


# -- the partitioned case -----------------------------------------------------


@dataclass
class ShardJob:
    """Everything one worker process needs to simulate its shard."""

    shard_id: int
    seed: int
    #: the shard's slice of the pool, devices keeping their global names
    pool: List[DeviceSpec]
    #: faults index ``pool``, so a crash names the shard-local index
    config: FleetConfig
    duration_ms: float
    #: the shard's slice of the global wave
    arrivals: List[Arrival]
    #: the global wave's spread, so every shard shares one horizon
    spread_ms: float
    #: whether ``after_ms`` counts from the epoch (arrival-curve offsets)
    anchored: bool = False

    def start(self) -> "ShardWorker":
        """Build the shard's worker, in the process that hosts it."""
        return ShardWorker(self)


class ShardWorker(FleetRun):
    """One shard of a partitioned fleet run, stepped in barrier windows.

    Stopping a discrete-event kernel at ``t`` and resuming changes
    nothing, so a one-shard worker run to its horizon is
    :meth:`FleetRun.run`.  Two things differ with more shards:

    * Offset schedules must be partition-invariant, and the bootstrap
      time is not (each shard's discovery races only its own devices).
      An anchored wave starts at a fixed epoch past the worst-case
      bootstrap (every discovery round timing out).
    * Partitioned admission can serialize a shard's sessions far more
      than the global pool would (a shard that drew the weak devices
      re-admits its queue one generation at a time), so a shard that
      still owns active or queued sessions at the horizon keeps serving,
      up to a hard cap: the fully serialized worst case.
    """

    def __init__(self, job: ShardJob):
        epoch_ms = None
        if job.anchored and job.arrivals:
            epoch_ms = DISCOVERY_ROUNDS * DISCOVERY_TIMEOUT_MS + 500.0
        super().__init__(
            Simulator(seed=job.seed, shard_id=job.shard_id),
            job.pool, job.config, job.duration_ms, job.arrivals,
            spread_ms=job.spread_ms, epoch_ms=epoch_ms,
        )
        self.shard_id = job.shard_id
        self.hard_cap_ms = self.horizon(2.0 + len(job.arrivals))

    @property
    def quiesced(self) -> bool:
        """Every owned session reached a terminal state."""
        return (
            self.arrivals_done
            and not self.controller.active
            and not len(self.controller.admission)
        )

    @property
    def done(self) -> bool:
        if self.sim.now < self.horizon_ms:
            return False
        return self.quiesced or self.sim.now >= self.hard_cap_ms

    def run_window(self, until_ms: float) -> BarrierReport:
        """Advance freely to ``min(until, horizon)``; report at the barrier.

        Past the horizon, a shard with live sessions keeps going (clamped
        to the hard cap instead); a quiescent one holds at the horizon,
        where :meth:`FleetRun.run` would stop.
        """
        cap = self.horizon_ms
        if self.sim.now >= self.horizon_ms and not self.done:
            cap = self.hard_cap_ms
        target = min(until_ms, cap)
        if target > self.sim.now:
            self.sim.run(until=target)
        controller = self.controller
        active = sorted(controller.active)
        return BarrierReport(
            shard_id=self.shard_id,
            now_ms=self.sim.now,
            done=self.done,
            active=len(active),
            finished=len(controller.finished),
            admission_queued=len(controller.admission),
            committed_mp_per_ms=round(
                controller.total_committed_mp_per_ms, 6
            ),
            capacity_mp_per_ms=round(controller.up_capacity_mp_per_ms, 6),
            heartbeats=[
                (sid, len(controller.active[sid].response_times_ms))
                for sid in active
            ],
            placements=[
                (sid, controller.active[sid].node.name)
                for sid in active
                if controller.active[sid].node is not None
            ],
        )

    def finish(self) -> ShardResult:
        """Seal the shard: final report, digests, banks; tear the sim down."""
        report = self.report()
        controller = self.controller
        sessions = sorted(
            controller.finished + list(controller.active.values()),
            key=lambda s: s.session_id,
        )
        result = ShardResult(
            shard_id=self.shard_id,
            report=report,
            session_digests={s.session_id: s.frame_digest() for s in sessions},
            metrics=self.sim.metrics.snapshot(),
            span_bank=span_bank(self.sim.spans),
            invariant_violations=self.invariant_violations,
        )
        # A sweep discards hundreds of kernels and must not accumulate
        # suspended frames or cyclic garbage.
        self.close()
        return result
