"""Check that scaling host times by the probe keeps a program's slowdown.

    PYTHONPATH=src python3 -m bench.check_scaling

The probe (``bench.host``) runs in the measured process, so a change to
the program's heap or cache use could move it and hide part of a real
slowdown.  This runs ``session_g3`` through the benchmark's own loop and
slows every other op by a known amount of work.  The op seeds are odd in
number, so each seed runs slowed and plain in turn, under the same host
conditions.  For each slowdown it prints by how much it moved the median
op in wall time and in scaled host time: equal moves mean the scaling
kept the slowdown.  Last, it times the probe, after a ``gc.collect()``
as in the loop, with and without extra retained heap.  It takes about a
minute.
"""

import gc
import statistics
from dataclasses import replace
from typing import Callable, Dict, List, Tuple

from bench.host import CALIBRATION_ITERS, probe_s, spin_s
from bench.measure import run_workload
from bench.workloads import WORKLOADS, Outcome

SEEDS = 15
SECONDS = 30.0
#: objects built by the ``alloc`` slowdown and by the retained heap
OBJECTS = 150_000


def _spin() -> None:
    """About 10% of a ``session_g3`` op of pure-Python work."""
    spin_s(CALIBRATION_ITERS // 16)


def _alloc() -> None:
    """About 20 MB of short-lived objects: more heap, a colder cache."""
    junk = [(i, str(i)) for i in range(OBJECTS)]
    del junk


def _slowdown(extra: Callable[[], None]) -> Tuple[float, float]:
    """(wall, host) median moves that ``extra`` after every other op makes."""
    plain = WORKLOADS["session_g3"].op
    calls = [0]

    def op(seed: int) -> Outcome:
        outcome = plain(seed)
        if calls[0] % 2:
            extra()
        calls[0] += 1
        return outcome

    run = run_workload(
        replace(WORKLOADS["session_g3"], op=op), seed=1, seconds=SECONDS,
        seeds=SEEDS,
    )
    by_seed: Dict[int, Tuple[List, List]] = {}
    for s in run.main.samples:
        by_seed.setdefault(s.index % SEEDS, ([], []))[s.index % 2].append(s)

    def move(time_of: Callable) -> float:
        return statistics.median(
            statistics.median(map(time_of, slowed))
            / statistics.median(map(time_of, unslowed))
            for unslowed, slowed in by_seed.values()
            if slowed and unslowed
        ) - 1.0

    return move(lambda s: s.wall_s), move(lambda s: s.ref_s)


def _heap_move() -> float:
    """How much retaining ``OBJECTS`` more objects moves the probe."""

    def after_gc_s() -> float:
        times = []
        for _ in range(9):
            gc.collect()
            times.append(probe_s())
        return statistics.median(times)

    moves = []
    for round_ in range(40):
        # Alternate which is timed first, so that drift cancels.
        without = after_gc_s() if round_ % 2 else None
        heap = [(i, str(i)) for i in range(OBJECTS)]
        with_heap = after_gc_s()
        del heap
        moves.append(with_heap / (without or after_gc_s()) - 1.0)
    return statistics.median(moves)


def main() -> None:
    for name, extra in (("cpu", _spin), ("alloc", _alloc)):
        wall, host = _slowdown(extra)
        print(f"{name:<6} slowed ops: wall {wall:+.1%}, host {host:+.1%}")
    print(f"heap   probe with {OBJECTS} more objects retained: "
          f"{_heap_move():+.1%}")


if __name__ == "__main__":
    main()
