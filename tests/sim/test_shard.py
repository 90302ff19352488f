"""Tests for repro.sim.shard: partitioning, barriers, worker pools."""

import pytest

from repro.experiments.fleet_shard import plan_fleet_shards
from repro.sim.shard import (
    BarrierReport,
    ShardError,
    ShardPlan,
    merge_barrier,
    run_parallel_jobs,
    run_shards,
)


def _mini_job(shard_id, shards, n_sessions=8, n_devices=4, seed=0,
              duration_ms=2_000.0):
    return plan_fleet_shards(
        n_sessions=n_sessions, n_devices=n_devices, shards=shards,
        seed=seed, duration_ms=duration_ms, crash=False,
    )[shard_id]


class TestShardPlan:
    def test_round_robin_partition(self):
        plan = ShardPlan(3)
        assert plan.indices(0, 10) == [0, 3, 6, 9]
        assert plan.indices(1, 10) == [1, 4, 7]
        assert plan.indices(2, 10) == [2, 5, 8]

    def test_partition_is_exhaustive_and_disjoint(self):
        plan = ShardPlan(4)
        seen = []
        for shard in range(4):
            seen.extend(plan.indices(shard, 23))
        assert sorted(seen) == list(range(23))

    def test_shard_of_agrees_with_indices(self):
        plan = ShardPlan(5)
        for i in range(40):
            assert i in plan.indices(plan.shard_of(i), 40)

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ShardError):
            ShardPlan(0)


class TestMergeBarrier:
    def _report(self, shard_id, **kw):
        base = dict(
            shard_id=shard_id, now_ms=1_000.0, done=False, active=2,
            finished=1, admission_queued=0, committed_mp_per_ms=1.0,
            capacity_mp_per_ms=4.0,
            heartbeats=[(f"s{shard_id}", 10)],
            placements=[(f"s{shard_id}", f"node{shard_id}")],
        )
        base.update(kw)
        return BarrierReport(**base)

    def test_merge_is_input_order_independent(self):
        reports = [self._report(i) for i in range(4)]
        forward = merge_barrier(reports, barrier_index=0, until_ms=1_000.0)
        backward = merge_barrier(
            list(reversed(reports)), barrier_index=0, until_ms=1_000.0
        )
        assert forward == backward

    def test_merge_totals(self):
        merged = merge_barrier(
            [self._report(1, active=3, finished=2), self._report(0)],
            barrier_index=2, until_ms=2_000.0,
        )
        assert merged.active == 5
        assert merged.finished == 3
        # heartbeats come out in (shard, session) order
        assert merged.heartbeats == [(0, "s0", 10), (1, "s1", 10)]


class TestRunShards:
    def test_single_shard_quiesces(self):
        results, summary = run_shards([_mini_job(0, 1)], workers=1)
        assert len(results) == 1
        assert results[0].report["sessions"]["finished"] == 8
        assert summary.barriers >= 1

    def test_two_shards_cover_all_sessions(self):
        jobs = [_mini_job(i, 2) for i in range(2)]
        results, _ = run_shards(jobs, workers=1)
        sids = sorted(
            sid for r in results for sid in r.session_digests
        )
        assert sids == [f"s{i:03d}" for i in range(8)]

    def test_workers_do_not_change_results(self):
        jobs1 = [_mini_job(i, 2) for i in range(2)]
        jobs2 = [_mini_job(i, 2) for i in range(2)]
        serial, s1 = run_shards(jobs1, workers=1)
        fanned, s2 = run_shards(jobs2, workers=2)
        assert [r.report["digest"] for r in serial] == [
            r.report["digest"] for r in fanned
        ]
        assert [r.session_digests for r in serial] == [
            r.session_digests for r in fanned
        ]
        assert s1 == s2

    def test_window_size_does_not_change_results(self):
        # Barrier windows are transport, not semantics: a DES kernel
        # cannot observe being stopped and resumed.
        a, _ = run_shards([_mini_job(0, 1)], workers=1, window_ms=250.0)
        b, _ = run_shards([_mini_job(0, 1)], workers=1, window_ms=4_000.0)
        assert a[0].report["digest"] == b[0].report["digest"]

    def test_on_barrier_observes_monotonic_windows(self):
        seen = []
        run_shards(
            [_mini_job(0, 1)], workers=1,
            on_barrier=lambda m: seen.append(m.until_ms),
        )
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)

    def test_rejects_duplicate_shard_ids(self):
        with pytest.raises(ShardError):
            run_shards([_mini_job(0, 2), _mini_job(0, 2)], workers=1)


def _square(x):
    return x * x


def _fail(x):
    raise ValueError(x)


class TestRunParallelJobs:
    def test_results_in_submission_order(self):
        jobs = [(_square, (i,)) for i in range(6)]
        assert run_parallel_jobs(jobs, workers=1) == [
            0, 1, 4, 9, 16, 25
        ]
        assert run_parallel_jobs(jobs, workers=3) == [
            0, 1, 4, 9, 16, 25
        ]

    def test_serial_propagates_exceptions(self):
        with pytest.raises(ValueError):
            run_parallel_jobs([(_fail, (1,))], workers=1)
