"""The replay bench harness: pair/divergence runs, gates, baseline diff."""

import copy
import json

import pytest

from repro.experiments.gate import seal
from repro.experiments.replay import (
    BENCH_REPLAY_SCHEMA,
    MIN_SPEEDUP,
    SPEC,
    run_replay_pair,
)


@pytest.fixture(scope="module")
def pair():
    return run_replay_pair(2_000.0, seed=1)


@pytest.fixture(scope="module")
def divergence():
    return run_replay_pair(2_000.0, seed=1, corrupt_after_cold=True)


class TestPair:
    def test_warm_session_is_served_and_verified(self, pair):
        warm = pair["warm"]
        assert warm["replay"]["hits"] > 0
        assert warm["replay"]["promotions"] > 0
        assert warm["replay"]["fallbacks"] == 0

    def test_fidelity_is_clean_on_both_sides(self, pair):
        assert pair["cold"]["fidelity_mismatches"] == 0
        assert pair["warm"]["fidelity_mismatches"] == 0
        assert pair["stream_prefix_equal"] is True
        assert pair["shared_prefix_frames"] > 0

    def test_warm_session_is_cheaper(self, pair):
        assert pair["speedup"]["uplink_bytes_per_frame"] > 1.0
        assert pair["speedup"]["server_replay_ms_per_frame"] > 1.0
        assert (
            pair["warm"]["uplink_bytes"] < pair["cold"]["uplink_bytes"]
        )

    def test_recorder_is_never_served(self, pair):
        assert pair["cold"]["replay"]["hits"] == 0
        assert pair["cold"]["replay"]["records"] > 0

    def test_same_seed_is_deterministic(self, pair):
        again = run_replay_pair(2_000.0, seed=1)
        assert json.dumps(pair, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )


class TestDivergence:
    def test_corruption_is_demoted_and_fallback_completes(self, divergence):
        warm = divergence["warm"]
        assert warm["replay"]["demotions"] >= 1
        assert warm["replay"]["fallbacks"] >= 1
        assert warm["frames"] > 0
        assert "corrupted_digest" in divergence

    def test_corruption_never_reaches_executed_frames(self, divergence):
        assert divergence["warm"]["fidelity_mismatches"] == 0


def make_bench(seed=0, smoke=True):
    """Minimal sealed artifact satisfying every validate_bench gate."""
    def session(replay):
        return {
            "frames": 100,
            "fidelity_mismatches": 0,
            "uplink_bytes_per_frame": 500.0,
            "server_replay_ms_per_frame": 0.1,
            "replay": replay,
        }

    return {
        "schema": BENCH_REPLAY_SCHEMA,
        "deterministic": seal({
            "seed": seed,
            "smoke": smoke,
            "pair": {
                "cold": session({"hits": 0, "records": 50}),
                "warm": session({"hits": 90, "promotions": 40}),
                "speedup": {
                    "uplink_bytes_per_frame": MIN_SPEEDUP + 1.0,
                    "server_replay_ms_per_frame": MIN_SPEEDUP + 2.0,
                },
                "stream_prefix_equal": True,
            },
            "divergence": {
                "warm": session(
                    {"hits": 80, "demotions": 1, "fallbacks": 1}
                ),
            },
            "fleet": {
                "with_replay": {
                    "frames_lost": 0,
                    "replay": {"warm_sessions": 5},
                },
                "response_speedup": 1.1,
            },
        }),
    }


class TestValidateBench:
    def test_accepts_well_formed_artifact(self):
        assert SPEC.validate(make_bench()) == []

    def test_rejects_non_dict(self):
        assert SPEC.validate([]) != []

    def test_rejects_wrong_schema(self):
        bench = make_bench()
        bench["schema"] = "repro.bench_replay/0"
        assert any("schema" in p for p in SPEC.validate(bench))

    def test_rejects_speedup_below_floor(self):
        bench = make_bench()
        bench["deterministic"]["pair"]["speedup"][
            "uplink_bytes_per_frame"
        ] = MIN_SPEEDUP - 0.5
        assert any("uplink_bytes_per_frame" in p for p in SPEC.validate(bench))

    def test_rejects_fidelity_breakage(self):
        bench = make_bench()
        bench["deterministic"]["pair"]["warm"]["fidelity_mismatches"] = 2
        assert any("fidelity" in p for p in SPEC.validate(bench))

    def test_rejects_missed_demotion(self):
        bench = make_bench()
        bench["deterministic"]["divergence"]["warm"]["replay"][
            "demotions"
        ] = 0
        assert any("demoted" in p for p in SPEC.validate(bench))

    def test_rejects_stream_divergence(self):
        bench = make_bench()
        bench["deterministic"]["pair"]["stream_prefix_equal"] = False
        assert any("diverge" in p for p in SPEC.validate(bench))

    def test_rejects_fleet_frame_loss(self):
        bench = make_bench()
        bench["deterministic"]["fleet"]["with_replay"]["frames_lost"] = 3
        assert any("lost frames" in p for p in SPEC.validate(bench))


class TestBaselineDiff:
    def test_identical_artifacts_pass(self):
        bench = make_bench()
        drift, skip = SPEC.diff(bench, copy.deepcopy(bench))
        assert drift == [] and skip is None

    def test_warm_cost_drift_fails_and_is_named(self):
        current = make_bench()
        current["deterministic"]["pair"]["warm"][
            "uplink_bytes_per_frame"
        ] = 500.0 * 1.05
        seal(current["deterministic"])
        drift, skip = SPEC.diff(current, make_bench())
        assert skip is None
        assert (
            "deterministic.pair.warm.uplink_bytes_per_frame: 500.0 → 525.0"
            in drift
        )

    def test_seed_mismatch_skips(self):
        drift, skip = SPEC.diff(
            make_bench(seed=0), make_bench(seed=7)
        )
        assert drift == [] and skip is not None
        assert "not comparable" in skip
