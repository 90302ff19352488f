"""Tier-1 pins for fleet digests that CI's smoke job checks too.

Each case reruns a seeded fleet artifact and compares its digest with a
fixed value: the sharded smoke point that ``fleet --smoke --workers 2``
prints, a two-shard point under each arrival curve (epoch-anchored
offsets), and the capacity and replay smoke artifacts against their
committed baselines.  The sharded pins are the simulated ``digest``
only: a span or mark moves the merged ``obs_digest`` and none of them.
A change that claims to leave simulated output alone must leave all of
them unchanged.  A change that moves them on purpose updates the pin
here (or regenerates the baseline) and records the old -> new digest
with its reason.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.capacity import run_capacity_bench, standard_curves
from repro.experiments.fleet_shard import (
    merge_shard_results,
    plan_fleet_shards,
    run_sharded_fleet_point,
)
from repro.experiments.replay import run_replay_bench
from repro.fleet import FleetConfig, arrival_offsets
from repro.sim.shard import run_shards

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"

#: the point behind ``repro fleet --smoke --workers 2``
SHARDED_SMOKE_DIGEST = (
    "5e5c401ad0cac1e39fe11260c5d89b2692a9907ac94c3e5f6e70d28b75b0452a"
)

#: 24 provisioned sessions on 24 devices over two shards, per curve
CURVE_POINT_DIGESTS = {
    "steady":
        "8d54ed8823e486a54bfdf24d0bb0a1a374ca0249414bceec153419460bb64d86",
    "diurnal":
        "c3b5cb5aaf7ec3198d7e4931d76b91e1326226df04cc6c66d730223b9d4b9b3e",
    "flash":
        "39b56c17f3cabe732b995ce87dd37585ef53176d018bf639006a6d96f7884674",
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


def test_a_mark_moves_obs_digest_and_not_digest():
    jobs = plan_fleet_shards(
        n_sessions=8, n_devices=4, shards=2, seed=0, duration_ms=1_000.0
    )
    results, summary = run_shards(jobs)
    bank = results[0].span_bank
    marked = dict(
        bank,
        total=bank["total"] + 1,
        by_category={**bank["by_category"], "test": 1},
        by_name={**bank["by_name"], "test.mark": 1},
    )
    plain = merge_shard_results(results, summary)
    observed = merge_shard_results(
        [replace(results[0], span_bank=marked), *results[1:]], summary
    )
    assert observed["spans"] != plain["spans"]
    assert observed["digest"] == plain["digest"]
    assert observed["obs_digest"] != plain["obs_digest"]


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
