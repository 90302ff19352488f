"""Sharded parallel simulation: many kernels, one deterministic fleet.

One single-threaded :class:`~repro.sim.kernel.Simulator` caps both the
wall-clock speed and the believable size of a fleet run.  This module
runs a partitioned fleet as **K shards** — each with its own kernel, its
own ``(seed, shard_id)``-namespaced random streams and its own event
queue — and fans them across worker processes, in the style of
conservative parallel discrete-event simulation:

* **Partition** — :class:`ShardPlan` assigns sessions and pool devices to
  shards round-robin by index, so the decomposition is a pure function of
  ``(n_sessions, n_devices, shards)`` and never of dict or completion
  order.
* **Free-running windows** — each shard's worker advances its kernel
  independently inside a conservative time window (``window_ms`` of
  simulated time).
* **Control-plane barriers** — at each window boundary every shard
  reports a :class:`BarrierReport` (heartbeats, placements, admission
  pressure); the coordinator merges them **sorted by (shard, session)**
  and broadcasts the next window.  Window length is the only thing the
  coordinator tunes (it stretches windows when the merged report shows
  the launch wave has drained), so merged results are independent of both
  the barrier cadence and the worker count.
* **Transports** — ``workers <= 1`` steps every shard inline in this
  process; ``workers > 1`` hosts shards in ``multiprocessing`` processes
  connected by pipes, exchanging pickled barrier reports and final
  results.  Both transports drive identical worker code with identical
  coordinator decisions, which is what makes ``--workers N`` a pure
  execution detail: same ``(seed, shards)`` in, byte-identical digests
  out, for any N.

A shard job is any picklable object with a ``shard_id`` and a
``start()`` that builds its worker in the hosting process; the worker
answers ``run_window(until_ms)`` with a :class:`BarrierReport` and
``finish()`` with a :class:`ShardResult`.  The fleet's job and worker
(:mod:`repro.fleet.runner`) run the single-kernel fleet run itself, so
``shards=1`` is that run, stepped in windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: default conservative window between control-plane barriers (sim ms)
DEFAULT_WINDOW_MS = 1_000.0

#: window stretch applied once the merged barrier shows a drained fleet
IDLE_WINDOW_STRETCH = 4.0

#: hard ceiling on barriers per run — a coordinator bug must fail loudly,
#: not spin forever
MAX_BARRIERS = 100_000


def _context():
    # Imported on first use: every single-kernel fleet run imports this
    # module for its payload types and never starts a process.
    import multiprocessing

    return multiprocessing.get_context()


class ShardError(RuntimeError):
    """Raised for shard-plan misuse (bad counts, undrained coordinators)."""


# -- partitioning -------------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """Deterministic round-robin partition of a fleet into ``shards``."""

    shards: int

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ShardError(f"need at least one shard, got {self.shards}")

    def shard_of(self, index: int) -> int:
        """Shard owning global session/device ``index``."""
        return index % self.shards

    def indices(self, shard: int, count: int) -> List[int]:
        """Global indices (ascending) owned by ``shard`` out of ``count``."""
        if not 0 <= shard < self.shards:
            raise ShardError(f"shard {shard} outside plan of {self.shards}")
        return list(range(shard, count, self.shards))


# -- report / result payloads (all picklable) --------------------------------


@dataclass
class BarrierReport:
    """What one shard tells the coordinator at a window boundary."""

    shard_id: int
    now_ms: float
    done: bool
    active: int
    finished: int
    admission_queued: int
    committed_mp_per_ms: float
    capacity_mp_per_ms: float
    #: (session_id, frames_answered) for every active session, ascending
    heartbeats: List[Tuple[str, int]] = field(default_factory=list)
    #: (session_id, node_name) for every active session, ascending
    placements: List[Tuple[str, str]] = field(default_factory=list)


@dataclass
class ShardResult:
    """Final pickled payload of one shard."""

    shard_id: int
    report: Dict[str, Any]
    session_digests: Dict[str, str]
    metrics: Dict[str, Any]
    span_bank: Dict[str, Any]
    invariant_violations: int = 0


@dataclass
class MergedBarrier:
    """Coordinator-side deterministic merge of one barrier round."""

    barrier_index: int
    until_ms: float
    active: int
    finished: int
    admission_queued: int
    committed_mp_per_ms: float
    capacity_mp_per_ms: float
    #: (shard, session_id, frames_answered), sorted by (shard, session)
    heartbeats: List[Tuple[int, str, int]] = field(default_factory=list)
    #: (shard, session_id, node), sorted by (shard, session)
    placements: List[Tuple[int, str, str]] = field(default_factory=list)


def merge_barrier(
    reports: Sequence[BarrierReport], barrier_index: int, until_ms: float
) -> MergedBarrier:
    """Merge per-shard barrier reports, sorted by (shard, session).

    Never dict order, never completion order — the merged view is a pure
    function of the reports' contents, so every transport (and every
    worker count) produces the same coordinator inputs.
    """
    ordered = sorted(reports, key=lambda r: r.shard_id)
    heartbeats = [
        (r.shard_id, sid, frames)
        for r in ordered
        for sid, frames in sorted(r.heartbeats)
    ]
    placements = [
        (r.shard_id, sid, node)
        for r in ordered
        for sid, node in sorted(r.placements)
    ]
    return MergedBarrier(
        barrier_index=barrier_index,
        until_ms=until_ms,
        active=sum(r.active for r in ordered),
        finished=sum(r.finished for r in ordered),
        admission_queued=sum(r.admission_queued for r in ordered),
        committed_mp_per_ms=round(
            sum(r.committed_mp_per_ms for r in ordered), 6
        ),
        capacity_mp_per_ms=round(
            sum(r.capacity_mp_per_ms for r in ordered), 6
        ),
        heartbeats=heartbeats,
        placements=placements,
    )


# -- transports ---------------------------------------------------------------


class InlineShardPool:
    """All shards stepped in this process (``--workers 1``)."""

    def __init__(self, jobs: Sequence[Any]):
        self._workers = [job.start() for job in jobs]

    def step(self, until_ms: float) -> List[BarrierReport]:
        return [w.run_window(until_ms) for w in self._workers]

    def finish(self) -> List[ShardResult]:
        return [w.finish() for w in self._workers]

    def close(self) -> None:
        self._workers = []


def _shard_host_main(conn, jobs: List[Any]) -> None:
    """Entry point of one worker process hosting one or more shards."""
    try:
        workers = [job.start() for job in jobs]
        conn.send(("ready", [job.shard_id for job in jobs]))
        while True:
            cmd, payload = conn.recv()
            if cmd == "window":
                conn.send(
                    ("reports", [w.run_window(payload) for w in workers])
                )
            elif cmd == "finish":
                conn.send(("results", [w.finish() for w in workers]))
                break
            else:  # pragma: no cover - protocol misuse
                raise ShardError(f"unknown shard-host command {cmd!r}")
    except EOFError:  # coordinator died; exit quietly
        pass
    finally:
        conn.close()


class ProcessShardPool:
    """Shards fanned across ``workers`` OS processes, piped barriers.

    Shard-to-host assignment is round-robin by shard id.  Because hosts
    only ever execute the jobs' worker code and the coordinator only
    ever sees the concatenation of barrier reports in shard order, the
    number of hosts is invisible to the results.
    """

    def __init__(self, jobs: Sequence[Any], workers: int):
        if workers < 1:
            raise ShardError(f"need at least one worker, got {workers}")
        ctx = _context()
        self._hosts: List[Tuple[Any, Any]] = []  # (process, pipe)
        assignments: List[List[Any]] = [
            [] for _ in range(min(workers, len(jobs)))
        ]
        for index, job in enumerate(jobs):
            assignments[index % len(assignments)].append(job)
        for hosted in assignments:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_host_main, args=(child_conn, hosted),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._hosts.append((proc, parent_conn))
        for _proc, conn in self._hosts:
            tag, _shards = conn.recv()
            if tag != "ready":  # pragma: no cover - protocol misuse
                raise ShardError(f"shard host failed to start: {tag!r}")

    def step(self, until_ms: float) -> List[BarrierReport]:
        for _proc, conn in self._hosts:
            conn.send(("window", until_ms))
        reports: List[BarrierReport] = []
        for _proc, conn in self._hosts:
            tag, payload = conn.recv()
            if tag != "reports":  # pragma: no cover - protocol misuse
                raise ShardError(f"expected barrier reports, got {tag!r}")
            reports.extend(payload)
        return sorted(reports, key=lambda r: r.shard_id)

    def finish(self) -> List[ShardResult]:
        for _proc, conn in self._hosts:
            conn.send(("finish", None))
        results: List[ShardResult] = []
        for proc, conn in self._hosts:
            tag, payload = conn.recv()
            if tag != "results":  # pragma: no cover - protocol misuse
                raise ShardError(f"expected shard results, got {tag!r}")
            results.extend(payload)
            proc.join(timeout=30.0)
        return sorted(results, key=lambda r: r.shard_id)

    def close(self) -> None:
        for proc, conn in self._hosts:
            conn.close()
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
        self._hosts = []


# -- the coordinator ----------------------------------------------------------


@dataclass
class CoordinatorSummary:
    """What the barrier protocol observed, for reports and tests."""

    barriers: int
    window_ms: float
    #: max over barriers of fleet-wide concurrently-active sessions; a
    #: lower bound on the true global peak (sampled at barriers only)
    peak_concurrent_observed: int
    final_until_ms: float


def run_shards(
    jobs: Sequence[Any],
    workers: int = 1,
    window_ms: float = DEFAULT_WINDOW_MS,
    on_barrier: Optional[Callable[[MergedBarrier], None]] = None,
) -> Tuple[List[ShardResult], CoordinatorSummary]:
    """Drive every shard window-by-window to completion and collect results.

    The coordinator's only decisions — the barrier cadence and when to
    stop — are pure functions of the deterministically merged barrier
    reports, so results are byte-identical for any ``workers`` at fixed
    ``(seed, shards)``.
    """
    jobs = list(jobs)
    if not jobs:
        raise ShardError("no shard jobs to run")
    ids = [job.shard_id for job in jobs]
    if len(set(ids)) != len(ids):
        raise ShardError(f"duplicate shard ids: {sorted(ids)}")
    if window_ms <= 0:
        raise ShardError(f"window_ms must be positive, got {window_ms}")
    pool: Any
    if workers <= 1 or len(jobs) == 1:
        pool = InlineShardPool(jobs)
    else:
        pool = ProcessShardPool(jobs, workers=workers)
    try:
        until = window_ms
        step = window_ms
        peak = 0
        barriers = 0
        while True:
            reports = pool.step(until)
            merged = merge_barrier(reports, barriers, until)
            barriers += 1
            peak = max(peak, merged.active)
            if on_barrier is not None:
                on_barrier(merged)
            if all(r.done for r in reports):
                break
            if barriers >= MAX_BARRIERS:
                raise ShardError(
                    f"barrier protocol did not converge in {MAX_BARRIERS} "
                    "rounds"
                )
            # Conservative window tuning, broadcast for the next round:
            # while sessions are live the fleet advances one base window
            # at a time; once the merged heartbeat shows the wave fully
            # drained (no active sessions, nothing queued) only control
            # loops remain, so stretch the window to race to the horizon.
            if merged.active == 0 and merged.admission_queued == 0:
                step = window_ms * IDLE_WINDOW_STRETCH
            else:
                step = window_ms
            until += step
        results = pool.finish()
        summary = CoordinatorSummary(
            barriers=barriers,
            window_ms=window_ms,
            peak_concurrent_observed=peak,
            final_until_ms=until,
        )
        return results, summary
    finally:
        pool.close()


# -- generic deterministic job fan-out ---------------------------------------


def _call_job(payload: Tuple[Callable[..., Any], tuple]) -> Any:
    fn, args = payload
    return fn(*args)


def run_parallel_jobs(
    jobs: Sequence[Tuple[Callable[..., Any], tuple]], workers: int = 1
) -> List[Any]:
    """Run independent simulation jobs, results in submission order.

    The coarse-grained sibling of :func:`run_shards` for workloads that
    decompose into self-contained sims (the SLO bench's scenarios): each
    job is a top-level callable plus args, each runs its own kernel, and
    results come back in job order regardless of worker count or
    completion order — so artifacts stay byte-identical for any
    ``workers``.
    """
    jobs = list(jobs)
    if workers <= 1 or len(jobs) <= 1:
        return [fn(*args) for fn, args in jobs]
    ctx = _context()
    with ctx.Pool(processes=min(workers, len(jobs))) as pool:
        return pool.map(_call_job, jobs)
