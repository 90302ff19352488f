"""Experiment R5: the capacity-planning sweep and its artifact."""

import json

import pytest

from repro.experiments.capacity import (
    ATTAINMENT_TARGET,
    BENCH_CAPACITY_SCHEMA,
    GENRE_MIXES,
    GENRE_TITLES,
    SPEC,
    compute_frontier,
    format_bench,
    mix_app_indices,
    run_capacity_bench,
    run_capacity_point,
    standard_curves,
)
from repro.experiments.fleet_shard import (
    plan_fleet_shards,
    run_sharded_fleet_point,
)
from repro.experiments.gate import seal
from repro.fleet import FleetConfig, arrival_offsets
from repro.sim.shard import ShardError

#: provisioned config — no back-pressure, so frame digests are
#: shard-count invariant (see tests/fleet/test_shard_properties.py)
PROVISIONED = FleetConfig(serve_rate_hz=10.0, pipeline_depth=8)


class TestGenreMixes:
    def test_apportionment_matches_the_weights(self):
        indices = mix_app_indices(GENRE_MIXES["action_heavy"], 50)
        action = sum(1 for i in indices if i in GENRE_TITLES["action"])
        role = sum(1 for i in indices if i in GENRE_TITLES["roleplaying"])
        puzzle = sum(1 for i in indices if i in GENRE_TITLES["puzzle"])
        assert action + role + puzzle == 50
        assert action == 30 and role == 10 and puzzle == 10

    def test_mix_interleaves_rather_than_batches(self):
        indices = mix_app_indices(GENRE_MIXES["balanced"], 12)
        # Every consecutive window of 3 holds all three genres.
        for i in range(0, 12, 3):
            genres = {
                g for idx in indices[i:i + 3]
                for g, titles in GENRE_TITLES.items() if idx in titles
            }
            assert genres == {"action", "roleplaying", "puzzle"}

    def test_titles_alternate_within_a_genre(self):
        indices = mix_app_indices({"action": 1}, 4)
        assert indices == [0, 1, 0, 1]

    def test_apportionment_is_deterministic(self):
        assert mix_app_indices(GENRE_MIXES["casual"], 31) == mix_app_indices(
            GENRE_MIXES["casual"], 31
        )

    def test_nonpositive_weight_is_rejected(self):
        with pytest.raises(ValueError):
            mix_app_indices({"action": 0}, 4)


class TestCapacityPoint:
    @pytest.fixture(scope="class")
    def record(self):
        curve = standard_curves(2_500.0)[0]
        return run_capacity_point(8, 2, curve, "balanced", 2_500.0, 0)

    def test_record_is_well_formed(self, record):
        assert record["sessions"] == 8
        assert record["devices"] == 2
        assert record["curve"] == "steady"
        assert 0.0 <= record["service_attainment"] <= 1.0
        assert record["frames_good"] + record["frames_bad"] > 0
        assert set(record["slo_states"]) == {
            "admission_reject_rate", "admission_wait", "fleet_frame_p99",
        }

    def test_admission_ledger_reconciles(self, record):
        assert record["reconciled"]
        assert record["admission"]["waiting"] == 0
        assert record["admission"]["offered"] == 8

    def test_invariant_monitor_is_armed_and_clean(self, record):
        assert record["invariant_violations"] == 0

    def test_point_is_deterministic(self, record):
        curve = standard_curves(2_500.0)[0]
        again = run_capacity_point(8, 2, curve, "balanced", 2_500.0, 0)
        assert again == record

    def test_denied_demand_counts_against_attainment(self):
        curve = standard_curves(1_500.0)[0]
        # 80 sessions on one device: the wait queue overflows, and every
        # rejected session's would-be frames count as denied.
        record = run_capacity_point(80, 1, curve, "balanced", 1_500.0, 0)
        assert record["admission"]["rejected"] > 0
        assert record["frames_denied"] > 0
        assert record["service_attainment"] < record["served_attainment"]


class TestSmokeBench:
    @pytest.fixture(scope="class")
    def bench(self):
        return run_capacity_bench(seed=0, smoke=True, workers=1)

    def test_artifact_validates(self, bench):
        assert SPEC.validate(bench) == []
        assert bench["schema"] == BENCH_CAPACITY_SCHEMA

    def test_worker_count_is_transport_only(self, bench):
        fanned = run_capacity_bench(seed=0, smoke=True, workers=2)
        assert json.dumps(fanned, sort_keys=True) == json.dumps(
            bench, sort_keys=True
        )

    def test_frontier_covers_every_group(self, bench):
        det = bench["deterministic"]
        groups = {
            (p["devices"], p["curve"], p["mix"]) for p in det["points"]
        }
        assert len(det["frontier"]) == len(groups)
        assert all(f["target"] == ATTAINMENT_TARGET for f in det["frontier"])

    def test_envelope_is_monotone_non_increasing(self, bench):
        det = bench["deterministic"]
        groups = {}
        for p in det["points"]:
            key = (p["devices"], p["curve"], p["mix"])
            groups.setdefault(key, []).append(p)
        for group in groups.values():
            ordered = sorted(group, key=lambda p: p["sessions"])
            envelope = [p["envelope_attainment"] for p in ordered]
            assert envelope == sorted(envelope, reverse=True)

    def test_formatting(self, bench):
        text = format_bench(bench)
        assert "sustained" in text
        assert "digest" in text


class TestFrontier:
    def _point(self, sessions, attainment, devices=4, curve="steady",
               mix="balanced"):
        return {
            "sessions": sessions, "devices": devices, "curve": curve,
            "mix": mix, "service_attainment": attainment,
        }

    def test_first_breach_caps_the_frontier(self):
        # 16 misses the bar, so 24 cannot be called sustained even
        # though its raw ratio wiggled back above the target.
        points = [
            self._point(8, 1.0),
            self._point(16, 0.97),
            self._point(24, 0.995),
        ]
        (entry,) = compute_frontier(points)
        assert entry["sustained"] == 8
        assert entry["attainment_at_sustained"] == 1.0
        assert entry["max_offered"] == 24

    def test_group_that_never_holds_reports_zero(self):
        (entry,) = compute_frontier([self._point(8, 0.5)])
        assert entry["sustained"] == 0
        assert entry["attainment_at_sustained"] is None

    def test_envelope_is_the_running_minimum(self):
        points = [
            self._point(8, 1.0),
            self._point(16, 0.97),
            self._point(24, 0.995),
        ]
        compute_frontier(points)
        assert [p["envelope_attainment"] for p in points] == [
            1.0, 0.97, 0.97,
        ]


class TestValidationGate:
    def test_rising_attainment_is_flagged(self):
        bench = run_capacity_bench(seed=0, smoke=True, workers=1)
        points = bench["deterministic"]["points"]
        ordered = sorted(
            (p for p in points
             if (p["devices"], p["curve"], p["mix"])
             == (points[0]["devices"], points[0]["curve"], points[0]["mix"])),
            key=lambda p: p["sessions"],
        )
        ordered[-1]["service_attainment"] = (
            ordered[0]["service_attainment"] + 0.5
        )
        assert any(
            "attainment rises" in p for p in SPEC.validate(bench)
        )

    def test_unreconciled_point_is_flagged(self):
        bench = run_capacity_bench(seed=0, smoke=True, workers=1)
        bench["deterministic"]["points"][0]["reconciled"] = False
        assert any(
            "does not reconcile" in p for p in SPEC.validate(bench)
        )

    def test_baseline_diff_skips_on_seed_mismatch(self):
        bench = run_capacity_bench(seed=0, smoke=True, workers=1)
        other = json.loads(json.dumps(bench))
        other["deterministic"]["seed"] = 9
        drift, skip = SPEC.diff(bench, other)
        assert drift == [] and skip is not None

    def test_baseline_diff_catches_frontier_regression(self):
        bench = run_capacity_bench(seed=0, smoke=True, workers=1)
        worse = json.loads(json.dumps(bench))
        for entry in worse["deterministic"]["frontier"]:
            entry["sustained"] = 0
        for p in worse["deterministic"]["points"]:
            p["service_attainment"] = 0.0
        seal(worse["deterministic"])
        drift, skip = SPEC.diff(worse, bench)
        assert skip is None
        assert any(
            r.startswith("deterministic.frontier[0].sustained: ")
            and r.endswith("→ 0")
            for r in drift
        )
        assert any(
            r.startswith("deterministic.points[0].service_attainment: ")
            for r in drift
        )


class TestShardedArrivals:
    def test_zero_session_point_yields_an_empty_report(self):
        """Regression: a zero-session sweep point used to die planning
        the launch wave (``gap_ms = spread / n_sessions``) instead of
        returning an empty-but-well-formed merged report."""
        point, report = run_sharded_fleet_point(
            n_sessions=0, n_devices=4, duration_ms=2_000.0, seed=0,
            shards=2, workers=1, crash=False,
        )
        assert point.offered == 0
        assert point.finished == 0
        assert point.frames == 0
        assert point.mean_wait_ms == 0.0
        assert point.session_digests == {}
        assert report["digest"] == point.digest

    def test_offsets_must_match_the_session_count(self):
        with pytest.raises(ShardError):
            plan_fleet_shards(
                n_sessions=4, n_devices=4, shards=2, seed=0,
                duration_ms=2_000.0, arrival_offsets=[0.0, 1.0],
            )

    def test_offsets_must_be_sorted(self):
        with pytest.raises(ShardError):
            plan_fleet_shards(
                n_sessions=2, n_devices=4, shards=2, seed=0,
                duration_ms=2_000.0, arrival_offsets=[5.0, 1.0],
            )

    @pytest.mark.parametrize(
        "curve", standard_curves(3_000.0), ids=lambda c: c.key
    )
    def test_frame_digests_shard_invariant_under_each_curve(self, curve):
        """The tentpole's partition-invariance contract: in a
        provisioned pool, per-session frame digests under an arrival
        curve are identical for 2 and 4 shards."""
        offsets = arrival_offsets(curve, 24, seed=0)
        spec = dict(
            n_sessions=24, n_devices=24, duration_ms=3_000.0, seed=0,
            crash=False, workers=1, config=PROVISIONED,
            arrival_offsets=offsets,
        )
        two, _ = run_sharded_fleet_point(shards=2, **spec)
        four, _ = run_sharded_fleet_point(shards=4, **spec)
        assert two.session_digests == four.session_digests
        assert len(two.session_digests) == 24
        assert two.frames_lost == four.frames_lost == 0
