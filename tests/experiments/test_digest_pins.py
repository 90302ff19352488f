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
    "894cabc2f61bc2f075880356ea3a7cd668bca75efe487aae05dbdb4318bd44d1"
)

#: 24 provisioned sessions on 24 devices over two shards, per curve
CURVE_POINT_DIGESTS = {
    "steady":
        "01bcb2bb7cca7ea33caf066fa83b50c088f596eb247bb79cd7e848f7dd0e8038",
    "diurnal":
        "f88843dd658075e690eb62bfdde340052e6f3318f9ce1880c96c6d6b090c9a51",
    "flash":
        "b92e989a980dea504a676c7113a7a93ca9974656b692d9c9b5073a4e71891284",
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
