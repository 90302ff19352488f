"""Multi-user service sharing (§VIII extension)."""

import pytest

from repro.apps.games import CANDY_CRUSH, MODERN_COMBAT
from repro.core.config import GBoosterConfig
from repro.core.multiuser import (
    app_priority,
    run_multiuser_experiment,
    run_multiuser_session,
)

DURATION = 30_000.0


class TestAppPriority:
    def test_genre_ordering(self):
        assert app_priority(MODERN_COMBAT) < app_priority(CANDY_CRUSH)


@pytest.mark.slow
class TestMultiUser:
    @pytest.fixture(scope="class")
    def results(self):
        return run_multiuser_experiment(
            MODERN_COMBAT, CANDY_CRUSH, duration_ms=DURATION
        )

    def test_both_users_served_under_both_policies(self, results):
        for policy, result in results.items():
            for user in result.users:
                assert user.fps.frame_count > 100, (policy, user.app.name)

    def test_priority_cuts_interactive_response(self, results):
        """The §VIII motivation: the shooter must not wait behind the
        puzzle game's queued requests."""
        fcfs = results["fcfs"].by_genre("action")
        prio = results["priority"].by_genre("action")
        assert prio.mean_response_ms < fcfs.mean_response_ms * 0.75

    def test_priority_improves_interactive_fps(self, results):
        fcfs = results["fcfs"].by_genre("action")
        prio = results["priority"].by_genre("action")
        assert prio.fps.median_fps >= fcfs.fps.median_fps

    def test_tolerant_app_still_playable(self, results):
        """Priority must starve nobody: the puzzle game keeps a usable
        frame rate (the paper's 24 FPS playability floor)."""
        puzzle = results["priority"].by_genre("puzzle")
        assert puzzle.fps.median_fps >= 20.0

    def test_fcfs_is_fairer_but_slower_for_shooter(self, results):
        fcfs_gap = abs(
            results["fcfs"].users[0].fps.median_fps
            - results["fcfs"].users[1].fps.median_fps
        )
        prio_gap = abs(
            results["priority"].users[0].fps.median_fps
            - results["priority"].users[1].fps.median_fps
        )
        assert fcfs_gap <= prio_gap + 2.0

    def test_determinism(self):
        a = run_multiuser_session(
            [MODERN_COMBAT, CANDY_CRUSH], duration_ms=15_000.0, seed=7
        )
        b = run_multiuser_session(
            [MODERN_COMBAT, CANDY_CRUSH], duration_ms=15_000.0, seed=7
        )
        for ua, ub in zip(a.users, b.users):
            assert ua.fps.median_fps == ub.fps.median_fps

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            GBoosterConfig(service_queue_policy="lottery").validate()


@pytest.mark.slow
class TestSharedChannel:
    def test_shared_channel_never_beats_independent_radios(self):
        from repro.core.multiuser import run_multiuser_session
        from repro.apps.games import MODERN_COMBAT, GTA_SAN_ANDREAS

        independent = run_multiuser_session(
            [MODERN_COMBAT, GTA_SAN_ANDREAS], duration_ms=20_000.0,
        )
        contended = run_multiuser_session(
            [MODERN_COMBAT, GTA_SAN_ANDREAS], duration_ms=20_000.0,
            shared_wifi_channel=True,
        )
        for free, shared in zip(independent.users, contended.users):
            assert shared.fps.median_fps <= free.fps.median_fps + 2.0
            assert shared.mean_response_ms >= free.mean_response_ms - 5.0

    def test_shared_channel_sessions_still_complete(self):
        from repro.core.multiuser import run_multiuser_session
        from repro.apps.games import MODERN_COMBAT, CANDY_CRUSH

        result = run_multiuser_session(
            [MODERN_COMBAT, CANDY_CRUSH], duration_ms=20_000.0,
            shared_wifi_channel=True,
        )
        for user in result.users:
            assert user.fps.frame_count > 100


class TestRejectedInputs:
    """A multi-user session that could not run sensibly is refused before
    its simulator exists; ``Simulator`` raises here if it is ever built."""

    @pytest.fixture(autouse=True)
    def no_simulator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Simulator was built for a bad input")

        monkeypatch.setattr("repro.core.multiuser.Simulator", refuse)

    @pytest.mark.parametrize(
        "duration_ms", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_bad_duration(self, duration_ms):
        with pytest.raises(ValueError, match="duration_ms"):
            run_multiuser_session(
                [MODERN_COMBAT, CANDY_CRUSH], duration_ms=duration_ms
            )

    def test_no_apps(self):
        with pytest.raises(ValueError, match="apps"):
            run_multiuser_session([], duration_ms=100.0)
