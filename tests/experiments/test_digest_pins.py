"""Tier-1 pins for fleet digests that CI's smoke job checks too.

Each case reruns a seeded fleet artifact and compares its digest with a
fixed value: the sharded smoke point that ``fleet --smoke --workers 2``
prints, a two-shard point under each arrival curve (epoch-anchored
offsets), and the capacity and replay smoke artifacts against their
committed baselines.  A change that claims to leave simulated output
alone must leave all of them unchanged.  A change that moves them on
purpose updates the pin here (or regenerates the baseline) and records
the old -> new digest with its reason.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.capacity import run_capacity_bench, standard_curves
from repro.experiments.fleet_shard import run_sharded_fleet_point
from repro.experiments.replay import run_replay_bench
from repro.fleet import FleetConfig, arrival_offsets

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"

#: the point behind ``repro fleet --smoke --workers 2``
SHARDED_SMOKE_DIGEST = (
    "347efe1ad9e72509f5a6283c49b25677edc295c794856f44ee263ce639196aae"
)

#: 24 provisioned sessions on 24 devices over two shards, per curve
CURVE_POINT_DIGESTS = {
    "steady":
        "8589aa8a42d5ac036e43d4b29051c07c90a8e27f61d5673a7cff9340bbc01bc2",
    "diurnal":
        "cde52132772d7bf72c54ded2dd86650153fcb649f61045a388b9325b96065e5d",
    "flash":
        "034920b8ebcaa9760d3e2177768fd09caffbc1d5d3820879664f13a458790d81",
}


def _baseline_digest(artifact: str) -> str:
    bench = json.loads((BASELINES / artifact).read_text())
    return bench["deterministic"]["digest"]


def test_sharded_smoke_point():
    point, _ = run_sharded_fleet_point(
        64, 8, 10_000.0, seed=0, shards=4, workers=1, crash=True
    )
    assert point.digest == SHARDED_SMOKE_DIGEST


@pytest.mark.parametrize(
    "curve", standard_curves(3_000.0), ids=lambda c: c.key
)
def test_two_shard_point_under_curve_offsets(curve):
    point, _ = run_sharded_fleet_point(
        n_sessions=24, n_devices=24, duration_ms=3_000.0, seed=0,
        shards=2, workers=1, crash=False,
        config=FleetConfig(serve_rate_hz=10.0, pipeline_depth=8),
        arrival_offsets=arrival_offsets(curve, 24, seed=0),
    )
    assert point.digest == CURVE_POINT_DIGESTS[curve.key]


def test_capacity_smoke_matches_its_baseline():
    bench = run_capacity_bench(seed=0, smoke=True)
    assert bench["deterministic"]["digest"] == _baseline_digest(
        "BENCH_CAPACITY.json"
    )


def test_replay_smoke_matches_its_baseline():
    bench = run_replay_bench(seed=0, smoke=True)
    assert bench["deterministic"]["digest"] == _baseline_digest(
        "BENCH_REPLAY.json"
    )
