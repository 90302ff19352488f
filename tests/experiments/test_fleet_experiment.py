"""Experiment R2: fleet scaling sweep."""

import pytest

from repro.experiments.fleet import (
    default_fault_schedule,
    format_points,
    make_fleet_pool,
    run_fleet_point,
    run_fleet_sweep,
)
from repro.fleet.config import FleetConfig


class TestPool:
    def test_pool_names_are_unique(self):
        pool = make_fleet_pool(10)
        assert len({d.name for d in pool}) == 10
        assert all(d.role == "service" for d in pool)

    def test_pool_size_validated(self):
        with pytest.raises(ValueError):
            make_fleet_pool(0)

    def test_default_faults_crash_then_rejoin(self):
        schedule = default_fault_schedule(10_000.0)
        (crash,) = schedule.events
        assert crash.at_ms == 4_000.0
        assert crash.rejoin_at_ms == 8_000.0


class TestPoint:
    @pytest.fixture(scope="class")
    def point(self):
        return run_fleet_point(n_sessions=12, n_devices=4,
                               duration_ms=4_000.0, seed=1)

    def test_invariants(self, point):
        p, report = point
        assert p.zero_loss
        # The admission ledger reconciles: every offered session is
        # admitted (directly or via the queue), rejected, or waiting —
        # and nothing waits once the run drains.
        assert p.offered == 12
        assert p.waiting == 0
        assert p.admitted + p.rejected == 12
        assert p.queued == p.dequeued
        # Post-fix, ``admitted`` includes dequeued sessions, so every
        # finished session was admitted.
        assert p.finished == p.admitted
        assert p.crash_migrations >= 1
        assert report["digest"] == p.digest

    def test_every_tier_represented(self, point):
        p, _ = point
        assert set(p.tier_response_ms) == {"action", "standard", "tolerant"}
        assert all(v > 0 for v in p.tier_response_ms.values())

    def test_deterministic_under_fixed_seed(self, point):
        p, _ = point
        again, _ = run_fleet_point(n_sessions=12, n_devices=4,
                                   duration_ms=4_000.0, seed=1)
        assert again.digest == p.digest

    def test_seed_changes_the_outcome(self, point):
        p, _ = point
        other, _ = run_fleet_point(n_sessions=12, n_devices=4,
                                   duration_ms=4_000.0, seed=2)
        assert other.digest != p.digest

    def test_no_crash_means_no_crash_migrations(self):
        p, _ = run_fleet_point(n_sessions=6, n_devices=4,
                               duration_ms=2_000.0, seed=1, crash=False)
        assert p.crash_migrations == 0
        assert p.zero_loss


class TestFaultSchedules:
    def test_crash_with_config_faults_is_refused(self):
        """``crash=True`` used to replace ``config.faults`` silently: the
        run equalled the one without the caller's schedule."""
        from repro.faults.schedule import FaultSchedule
        from repro.fleet import FleetConfig

        faults = FaultSchedule().crash(at_ms=1_000.0, node=1)
        with pytest.raises(ValueError, match="config.faults"):
            run_fleet_point(n_sessions=8, n_devices=2, duration_ms=3_000.0,
                            crash=True, config=FleetConfig(faults=faults))

    def test_config_faults_alone_still_apply(self):
        from repro.fleet import FleetConfig

        point, _ = run_fleet_point(
            n_sessions=8, n_devices=2, duration_ms=3_000.0, crash=False,
            config=FleetConfig(faults=default_fault_schedule(3_000.0)),
        )
        crashed, _ = run_fleet_point(
            n_sessions=8, n_devices=2, duration_ms=3_000.0, crash=True,
        )
        assert point.digest == crashed.digest


class TestRejectedInputs:
    """A fleet point that could not run sensibly is refused before its
    simulator exists; ``Simulator`` raises here if it is ever built."""

    @pytest.fixture(autouse=True)
    def no_simulator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Simulator was built for a bad input")

        monkeypatch.setattr("repro.experiments.fleet.Simulator", refuse)

    @pytest.mark.parametrize("crash", [True, False])
    @pytest.mark.parametrize(
        "duration_ms", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_bad_duration(self, duration_ms, crash):
        with pytest.raises(ValueError, match="duration_ms"):
            run_fleet_point(
                n_sessions=4, n_devices=2, duration_ms=duration_ms,
                crash=crash,
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("serve_rate_hz", float("nan")),
            ("serve_rate_hz", float("inf")),
            ("serve_rate_hz", 0.0),
            ("admission_oversubscription", float("nan")),
            ("admission_oversubscription", float("inf")),
            ("admission_oversubscription", -1.0),
        ],
    )
    def test_bad_config_value(self, field, value):
        with pytest.raises(ValueError, match=field):
            run_fleet_point(
                n_sessions=8, n_devices=2, duration_ms=1_000.0,
                config=FleetConfig(**{field: value}),
            )


class TestSweep:
    def test_sweep_and_formatting(self):
        points = run_fleet_sweep(session_counts=(4, 8), n_devices=4,
                                 duration_ms=2_000.0, seed=0)
        assert [p.sessions_requested for p in points] == [4, 8]
        text = format_points(points)
        assert "sessions" in text and len(text.splitlines()) == 3

    def test_admission_pressure_grows_with_sessions(self):
        low, high = run_fleet_sweep(session_counts=(4, 48), n_devices=2,
                                    duration_ms=2_000.0, seed=0)
        assert low.admitted == 4 and low.queued == 0
        assert high.queued + high.rejected > 0
        assert high.peak_concurrency <= high.admitted
