"""Host speed, read from fixed pure-Python work timed next to the program.

Neighbours on a shared host slow it down in bursts that last from a
fraction of a second to minutes.  The benchmark times a probe next to
every op and scales op times to ``REF_PROBE_S``: a *reference second* is
how long the work would take on a host where the probe takes
``REF_PROBE_S``.  Set-up is mostly starting a process and importing
modules, which a busy host slows more than it slows the probe, so each
set-up is scaled instead by a reference set-up timed next to it
(``python -m bench.host``) to ``REF_SETUP_S``.  The work of both is
fixed, so a slower program leaves them unchanged and the scaling keeps
the slowdown.
"""

import time

#: the probe's median time on the reference host, a 2-core Intel Xeon VM
#: running Python 3.11
REF_PROBE_S = 6.0e-3
#: the reference set-up's median time on the reference host
REF_SETUP_S = 0.3
#: iterations of the run-level calibration loop (about 0.25 s)
CALIBRATION_ITERS = 3_500_000

_ARITH_ITERS = 42_000
_NODES = 8_000


def spin_s(iters: int) -> float:
    """Seconds a fixed integer loop of ``iters`` iterations takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iters):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


class _Node:
    __slots__ = ("a", "b", "nxt")

    def __init__(self, a: int, b: int, nxt: "_Node | None"):
        self.a = a
        self.b = b
        self.nxt = nxt

    def value(self) -> int:
        return self.a + self.b


def probe_s() -> float:
    """Seconds the probe takes now: about 6 ms of integer arithmetic, and
    of object allocation with method calls.

    A busy neighbour slows the two unequally; the simulator does both, and
    timing them together tracks its slowdown better than either alone.
    The probe keeps no data between calls: a probe that read a table was
    slowed by the program's own heap growing, and so hid part of the
    program's slowdown (``python -m bench.check_scaling`` measures this).
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(_ARITH_ITERS):
        acc = (acc * 31 + i) % 1_000_003
    head = None
    for i in range(_NODES):
        head = _Node(i, i & 7, head)
        acc += head.value()
    while head is not None:
        acc -= head.a
        head = head.nxt
    return time.perf_counter() - t0


def to_ref_s(wall_s: float, probe_s: float) -> float:
    """Wall time scaled to the reference host, by a probe timed next to it."""
    return wall_s * REF_PROBE_S / probe_s


def _reference_setup() -> None:
    """Work like a set-up's that no change to the program can speed up:
    import numpy, the simulator's compiled dependency, and some hundred
    standard modules, then run the probe for about as long as a warm-up
    op takes."""
    import argparse, asyncio, decimal, email.message, http.client  # noqa: F401
    import json, unittest, xml.dom.minidom  # noqa: F401
    import numpy  # noqa: F401

    for _ in range(15):
        probe_s()


if __name__ == "__main__":
    _reference_setup()
    print("ready", flush=True)
