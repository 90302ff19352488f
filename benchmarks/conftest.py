"""Shared benchmark configuration.

Session-style benchmarks are deterministic simulations, so a single round
measures them exactly; ``run_once`` wraps ``benchmark.pedantic``
accordingly.  ``REPRO_BENCH_DURATION_MS`` scales the simulated session
length (default 240 s; the paper plays 15-minute sessions — set 900000 for
full-fidelity stability numbers at ~4x the wall time).
"""

import os

import pytest

DEFAULT_DURATION_MS = float(os.environ.get("REPRO_BENCH_DURATION_MS",
                                           240_000.0))
#: worker processes for the Fig 5/6 matrices; rows do not depend on it
MATRIX_WORKERS = min(2, os.cpu_count() or 1)


@pytest.fixture
def session_duration_ms():
    return DEFAULT_DURATION_MS


@pytest.fixture
def run_once(benchmark):
    """Run a deterministic experiment exactly once under the benchmark."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return _run


def print_table(title, header, rows):
    print(f"\n=== {title} ===")
    print(header)
    for row in rows:
        print(row)
