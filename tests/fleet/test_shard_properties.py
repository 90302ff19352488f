"""Property tests for the sharded fleet determinism contract.

Three guarantees, each asserted byte-for-byte:

1. ``shards=1`` reproduces the legacy single-kernel report digest —
   the sharded path is a strict generalization, not a rewrite;
2. at fixed ``(seed, shards)`` the merged digest is identical for any
   worker count — parallelism is transport, not semantics;
3. in a provisioned pool (no back-pressure anywhere) per-session frame
   digests are shard-count invariant — what a session renders does not
   depend on who shares its kernel.
"""

import pytest

from repro.experiments.fleet import run_fleet_point
from repro.experiments.fleet_shard import (
    plan_fleet_shards,
    run_sharded_fleet_point,
)
from repro.fleet import FleetConfig
from repro.sim.shard import ShardError

#: short fleet point used throughout — quiesces well inside the horizon
POINT = dict(n_sessions=32, n_devices=8, duration_ms=3_000.0, seed=0)

#: provisioned config: no device's service time exceeds the issue
#: period, so the pipeline gate never binds and issuance is
#: placement-independent
PROVISIONED = FleetConfig(serve_rate_hz=10.0, pipeline_depth=8)


class TestLegacyEquivalence:
    @pytest.mark.parametrize("crash", [False, True])
    def test_one_shard_reproduces_legacy_digest(self, crash):
        _, legacy = run_fleet_point(crash=crash, **POINT)
        _, report = run_sharded_fleet_point(
            shards=1, workers=1, crash=crash, **POINT
        )
        assert report["per_shard_digests"]["0"] == legacy["digest"]

    def test_one_shard_legacy_match_survives_window_choice(self):
        _, legacy = run_fleet_point(crash=False, **POINT)
        for window_ms in (250.0, 2_000.0):
            _, report = run_sharded_fleet_point(
                shards=1, workers=1, crash=False,
                window_ms=window_ms, **POINT
            )
            assert report["per_shard_digests"]["0"] == legacy["digest"]


class TestWorkerInvariance:
    def test_worker_count_is_transport_only(self):
        points = {}
        reports = {}
        for workers in (1, 2, 4):
            points[workers], reports[workers] = run_sharded_fleet_point(
                shards=4, workers=workers, crash=True, **POINT
            )
        digests = {p.digest for p in points.values()}
        assert len(digests) == 1
        session_digests = [
            r["session_digests"] for r in reports.values()
        ]
        assert session_digests[0] == session_digests[1] == session_digests[2]

    def test_same_seed_same_report(self):
        a, _ = run_sharded_fleet_point(
            shards=2, workers=1, crash=True, **POINT
        )
        b, _ = run_sharded_fleet_point(
            shards=2, workers=1, crash=True, **POINT
        )
        assert a.digest == b.digest

    def test_different_seed_different_report(self):
        spec = dict(POINT)
        spec.pop("seed")
        a, _ = run_sharded_fleet_point(
            seed=0, shards=2, workers=1, crash=False, **spec
        )
        b, _ = run_sharded_fleet_point(
            seed=7, shards=2, workers=1, crash=False, **spec
        )
        assert a.digest != b.digest


class TestShardCountInvariance:
    def test_frame_digests_invariant_across_shard_counts(self):
        spec = dict(
            n_sessions=32, n_devices=32, duration_ms=3_000.0, seed=0,
            crash=False, workers=1, config=PROVISIONED,
        )
        two, _ = run_sharded_fleet_point(shards=2, **spec)
        four, _ = run_sharded_fleet_point(shards=4, **spec)
        assert two.session_digests == four.session_digests
        assert len(two.session_digests) == 32
        assert two.frames == four.frames
        assert two.frames_lost == four.frames_lost == 0


class TestShardedFleetSemantics:
    def test_all_sessions_finish_despite_partitioned_admission(self):
        # Oversubscribed per-shard pools serialize their queues; the
        # horizon extension must still drive every session to a
        # terminal state with zero frame loss.
        point, _ = run_sharded_fleet_point(
            n_sessions=64, n_devices=8, duration_ms=3_000.0, seed=0,
            shards=4, workers=1, crash=False,
        )
        assert point.finished == 64
        assert point.frames_lost == 0
        assert point.rejected == 0

    def test_crash_lands_on_exactly_one_shard(self):
        jobs = plan_fleet_shards(
            n_sessions=32, n_devices=8, shards=4, seed=0,
            duration_ms=3_000.0, crash=True,
        )
        crashing = [job for job in jobs if job.config.faults]
        assert len(crashing) == 1
        assert crashing[0].shard_id == 0  # owns global device 0
        (crash,) = crashing[0].config.faults
        assert crash.node == 0            # its local index
        assert 0 < crash.at_ms < crash.rejoin_at_ms

    def test_plan_refuses_a_global_fault_schedule(self):
        """``config.faults`` names global device indices, but every shard
        used to apply the whole schedule to its own devices: node 0 of
        each shard crashed (15 crash migrations on this point over four
        shards, where ``crash=True`` gives 5)."""
        from repro.experiments.fleet import default_fault_schedule

        config = FleetConfig(faults=default_fault_schedule(3_000.0))
        with pytest.raises(ShardError, match="config.faults"):
            run_sharded_fleet_point(
                shards=4, workers=1, crash=False, config=config, **POINT
            )

    def test_plan_rejects_more_shards_than_devices(self):
        with pytest.raises(ShardError):
            plan_fleet_shards(
                n_sessions=32, n_devices=2, shards=4, seed=0,
                duration_ms=3_000.0,
            )

    def test_plan_rejects_more_shards_than_sessions(self):
        with pytest.raises(ShardError):
            plan_fleet_shards(
                n_sessions=2, n_devices=8, shards=4, seed=0,
                duration_ms=3_000.0,
            )
