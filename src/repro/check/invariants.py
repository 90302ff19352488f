"""Runtime conservation-law checking for the whole simulation.

An :class:`InvariantMonitor` attaches to a :class:`~repro.sim.kernel.
Simulator` and periodically (plus once at finalization) evaluates a set of
conservation laws that must hold between any two callbacks:

* **frame conservation** — every frame the engine submitted is either
  presented or still in flight (``submitted == presented + in_flight``);
* **transport message conservation** — every message sent is delivered,
  in flight awaiting (re)transmission, or held for reordering;
* **transport byte conservation** — bytes delivered never exceed bytes
  offered;
* **cache lockstep** — sender and receiver command caches agree on keys,
  order, capacity and hit counts, and hits never exceed lookups;
* **fleet ownership** — every active session is homed on exactly one
  known node, per-session frame accounting balances, and committed
  capacity never goes negative or exceeds active demand.

Violations are structured (:class:`Violation`): they carry the law's name,
the simulation time, the offending numbers, and the newest marks of the
span ring at detection time so a failure is diagnosable without
re-running.  The monitor is armed by ``GBoosterConfig.check`` /
``FleetConfig.check`` in experiments and used directly in tier-1 tests;
``strict=True`` raises :class:`InvariantError` at the moment of
detection.

This module is imported by the session runners, so it deliberately imports
nothing above :mod:`repro.sim` — every ``watch_*`` helper takes its
subject duck-typed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.kernel import Simulator, TimerHandle

#: default sweep interval; fine enough to catch transient imbalance,
#: coarse enough to stay negligible against a 60 s session
DEFAULT_INTERVAL_MS = 250.0

#: tolerance for float accumulators (committed capacity, fill gauges)
EPS = 1e-6

#: how many trailing span-ring marks a violation carries for diagnosis
TRACE_TAIL = 8

#: a CheckFn returns None when the law holds, else (message, details)
CheckFn = Callable[[], Optional[Tuple[str, Dict[str, Any]]]]


@dataclass
class Violation:
    """One detected conservation-law break."""

    invariant: str
    at_ms: float
    message: str
    details: Dict[str, Any] = field(default_factory=dict)
    #: newest span-ring marks at detection time, as dicts
    trace: List[Dict[str, Any]] = field(default_factory=list)
    occurrences: int = 1

    def __str__(self) -> str:
        return (
            f"[{self.invariant}] t={self.at_ms:.3f} ms: {self.message} "
            f"(x{self.occurrences})"
        )


class InvariantError(AssertionError):
    """Raised in strict mode the moment a law breaks."""

    def __init__(self, violations: List[Violation]):
        self.violations = violations
        super().__init__(
            "; ".join(str(v) for v in violations) or "invariant violation"
        )


class InvariantMonitor:
    """Continuously asserts conservation laws on a running simulation."""

    def __init__(
        self,
        sim: Simulator,
        interval_ms: float = DEFAULT_INTERVAL_MS,
        strict: bool = False,
        max_violations: int = 64,
    ):
        if interval_ms <= 0:
            raise ValueError(f"interval must be positive, got {interval_ms}")
        self.sim = sim
        self.interval_ms = interval_ms
        self.strict = strict
        self.max_violations = max_violations
        self.violations: List[Violation] = []
        self.checks_run = 0
        self._checks: List[Tuple[str, CheckFn]] = []
        #: every registered law's name, kept when :meth:`finalize` drops
        #: the laws themselves
        self.invariant_names: List[str] = []
        #: (invariant, message) -> Violation, for occurrence folding
        self._seen: Dict[Tuple[str, str], Violation] = {}
        #: the pending start hop or sweep
        self._timer: Optional[TimerHandle] = None
        self._finalized = False

    # -- registration --------------------------------------------------------

    def register(self, name: str, fn: CheckFn) -> None:
        """Add a conservation law; ``fn`` returns None or (message, details)."""
        self._checks.append((name, fn))
        self.invariant_names.append(name)

    @property
    def ok(self) -> bool:
        return not self.violations

    # -- built-in law packs --------------------------------------------------

    def watch_client(self, client: Any) -> None:
        """Frame conservation on a :class:`~repro.core.client.GBoosterClient`."""

        def frames() -> Optional[Tuple[str, Dict[str, Any]]]:
            stats = client.stats
            in_flight = len(client._completions)
            if stats.frames_submitted != stats.frames_presented + in_flight:
                return (
                    "frames submitted != presented + in-flight",
                    {
                        "submitted": stats.frames_submitted,
                        "presented": stats.frames_presented,
                        "in_flight": in_flight,
                    },
                )
            return None

        def outstanding() -> Optional[Tuple[str, Dict[str, Any]]]:
            stats = client.stats
            pending = stats.frames_submitted - stats.frames_presented
            if len(client._outstanding) > pending:
                return (
                    "more remote requests outstanding than unpresented frames",
                    {
                        "outstanding": len(client._outstanding),
                        "unpresented": pending,
                    },
                )
            return None

        self.register("client.frame_conservation", frames)
        self.register("client.outstanding_bound", outstanding)

    def watch_transports(self, transports: List[Any]) -> None:
        """Message/byte conservation on every bound transport."""

        def conservation() -> Optional[Tuple[str, Dict[str, Any]]]:
            for t in transports:
                sent = t.stats.messages_sent
                delivered = t.stats.messages_delivered
                held = t.reorder_held()
                accounted = delivered + t.in_flight() + held
                if sent != accounted:
                    return (
                        f"{t.name}: sent != delivered + in-flight + reordering",
                        {
                            "transport": t.name,
                            "sent": sent,
                            "delivered": delivered,
                            "in_flight": t.in_flight(),
                            "reorder_held": held,
                        },
                    )
            return None

        def bytes_balance() -> Optional[Tuple[str, Dict[str, Any]]]:
            for t in transports:
                if t.stats.bytes_delivered > t.stats.bytes_offered:
                    return (
                        f"{t.name}: delivered more bytes than were offered",
                        {
                            "transport": t.name,
                            "bytes_offered": t.stats.bytes_offered,
                            "bytes_delivered": t.stats.bytes_delivered,
                        },
                    )
            return None

        def ordering() -> Optional[Tuple[str, Dict[str, Any]]]:
            for t in transports:
                if t.stats.messages_delivered != t._expected_seq:
                    return (
                        f"{t.name}: in-order delivery count out of lockstep "
                        "with the expected sequence number",
                        {
                            "transport": t.name,
                            "delivered": t.stats.messages_delivered,
                            "expected_seq": t._expected_seq,
                        },
                    )
            return None

        self.register("transport.message_conservation", conservation)
        self.register("transport.byte_conservation", bytes_balance)
        self.register("transport.ordered_delivery", ordering)

    def watch_pipeline(self, pipeline: Any) -> None:
        """Cache-lockstep laws on a :class:`~repro.codec.pipeline.CommandPipeline`."""

        def lockstep() -> Optional[Tuple[str, Dict[str, Any]]]:
            pair = pipeline.cache
            if not pair.verify_consistent():
                return (
                    "sender and receiver caches diverged in key order",
                    {
                        "sender": len(pair.sender),
                        "receiver": len(pair.receiver),
                    },
                )
            if pair.sender.stats.hits != pair.receiver.stats.hits:
                return (
                    "sender and receiver hit counts diverged",
                    {
                        "sender_hits": pair.sender.stats.hits,
                        "receiver_hits": pair.receiver.stats.hits,
                    },
                )
            return None

        def bounds() -> Optional[Tuple[str, Dict[str, Any]]]:
            pair = pipeline.cache
            for side, cache in (("sender", pair.sender),
                                ("receiver", pair.receiver)):
                if len(cache) > cache.capacity:
                    return (
                        f"{side} cache exceeded its capacity",
                        {
                            "side": side,
                            "entries": len(cache),
                            "capacity": cache.capacity,
                        },
                    )
                if cache.stats.hits > cache.stats.lookups:
                    return (
                        f"{side} cache hits exceed lookups",
                        {
                            "side": side,
                            "hits": cache.stats.hits,
                            "lookups": cache.stats.lookups,
                        },
                    )
            return None

        self.register("cache.lockstep", lockstep)
        self.register("cache.bounds", bounds)

    def watch_fleet(self, controller: Any) -> None:
        """Ownership and accounting laws on a :class:`FleetController`."""

        def ownership() -> Optional[Tuple[str, Dict[str, Any]]]:
            for sid, session in controller.active.items():
                node = session.node
                if node is None and session.started_at_ms is not None:
                    return (
                        f"active session {sid} has no home node",
                        {"session": sid},
                    )
                if node is not None and node.name not in controller.nodes:
                    return (
                        f"active session {sid} homed on unknown node "
                        f"{node.name}",
                        {"session": sid, "node": node.name},
                    )
            finished_ids = {s.session_id for s in controller.finished}
            twice = sorted(set(controller.active) & finished_ids)
            if twice:
                return (
                    "sessions simultaneously active and finished",
                    {"sessions": twice},
                )
            return None

        def session_frames() -> Optional[Tuple[str, Dict[str, Any]]]:
            for sid, session in controller.sessions.items():
                answered = len(session.response_times_ms)
                pending = len(session.outstanding)
                if session.frames_issued != answered + pending:
                    return (
                        f"session {sid}: issued != answered + outstanding",
                        {
                            "session": sid,
                            "issued": session.frames_issued,
                            "answered": answered,
                            "outstanding": pending,
                        },
                    )
            return None

        def accounting() -> Optional[Tuple[str, Dict[str, Any]]]:
            for name, committed in controller.committed_mp_per_ms.items():
                if committed < -EPS:
                    return (
                        f"negative committed capacity on {name}",
                        {"node": name, "committed_mp_per_ms": committed},
                    )
            demand = sum(
                s.demand_mp_per_ms for s in controller.active.values()
            )
            total = controller.total_committed_mp_per_ms
            if total > demand + EPS:
                return (
                    "committed capacity exceeds active session demand",
                    {"committed": total, "active_demand": demand},
                )
            for name, node in controller.nodes.items():
                if node.queued_workload_mp < -EPS:
                    return (
                        f"negative queued workload on {name}",
                        {"node": name, "queued_mp": node.queued_workload_mp},
                    )
            return None

        def admission_reconciliation() -> Optional[Tuple[str, Dict[str, Any]]]:
            stats = controller.admission.stats
            waiting = len(controller.admission)
            if not stats.reconciles(waiting):
                return (
                    "offered sessions != admitted + rejected + waiting",
                    {
                        "offered": stats.offered,
                        "admitted": stats.admitted,
                        "rejected": stats.rejected,
                        "waiting": waiting,
                    },
                )
            if stats.dequeued + waiting != stats.queued:
                return (
                    "ever-queued sessions != dequeued + still waiting",
                    {
                        "queued": stats.queued,
                        "dequeued": stats.dequeued,
                        "waiting": waiting,
                    },
                )
            return None

        self.register("fleet.session_ownership", ownership)
        self.register("fleet.frame_conservation", session_frames)
        self.register("fleet.capacity_accounting", accounting)
        self.register("fleet.admission_reconciliation", admission_reconciliation)

    # -- running -------------------------------------------------------------

    def start(self) -> None:
        """Start the periodic sweep after a zero-time hop; idempotent."""
        if self._timer is None:
            self._timer = self.sim.call_later(0.0, self._arm)

    def _arm(self) -> None:
        if not self._finalized:
            self._timer = self.sim.call_later(self.interval_ms, self._sweep)

    def _sweep(self) -> None:
        self.check_now()
        self._arm()

    def check_now(self) -> List[Violation]:
        """Evaluate every law once; returns the violations found this sweep."""
        self.checks_run += 1
        fresh: List[Violation] = []
        for name, fn in self._checks:
            try:
                result = fn()
            except Exception as exc:  # a law's subject died mid-run
                result = (f"check raised {type(exc).__name__}: {exc}", {})
            if result is None:
                continue
            message, details = result
            key = (name, message)
            known = self._seen.get(key)
            if known is not None:
                known.occurrences += 1
                continue
            violation = Violation(
                invariant=name,
                at_ms=self.sim.now,
                message=message,
                details=details,
                trace=self._trace_tail(),
            )
            self._seen[key] = violation
            if len(self.violations) < self.max_violations:
                self.violations.append(violation)
                fresh.append(violation)
            self.sim.metrics.counter("check.violations").inc()
            self.sim.spans.mark(
                "check", "violation", invariant=name, message=message,
            )
            # A fresh conservation-law break is flight-recorder trigger
            # material: the evidence is still warm in the span ring.
            flight = getattr(self.sim, "flight", None)
            if flight is not None:
                flight.on_violation(violation)
        if fresh and self.strict:
            raise InvariantError(fresh)
        return fresh

    def finalize(self) -> List[Violation]:
        """Stop the sweep, run the laws one final time, return everything.

        The laws are dropped after that last sweep: they close over what
        they watch, which often holds the monitor in turn.
        """
        if not self._finalized:
            self._finalized = True
            if self._timer is not None:
                self._timer.cancel()
            self.check_now()
            self._checks = []
        return self.violations

    def summary(self) -> Dict[str, Any]:
        return {
            "invariants": self.invariant_names,
            "checks_run": self.checks_run,
            "violations": [
                {
                    "invariant": v.invariant,
                    "at_ms": round(v.at_ms, 3),
                    "message": v.message,
                    "occurrences": v.occurrences,
                }
                for v in self.violations
            ],
        }

    # -- internals -----------------------------------------------------------

    def _trace_tail(self) -> List[Dict[str, Any]]:
        return [
            {
                "time": mark.start_ms,
                "category": mark.category,
                "event": mark.name,
                "track": mark.track,
                "frame_id": mark.frame_id,
                "data": dict(mark.args),
            }
            for mark in self.sim.spans.tail_marks(TRACE_TAIL)
        ]
