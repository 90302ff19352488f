"""Fleet sessions: tiers, pacing, bounded pipeline."""

from repro.apps.games import CANDY_CRUSH, GTA_SAN_ANDREAS, MODERN_COMBAT
from repro.devices.profiles import NVIDIA_SHIELD
from repro.fleet import (
    FleetConfig,
    FleetNode,
    FleetSession,
    SessionRequest,
    tier_name,
)
from repro.sim.kernel import Simulator


def run_session(app, duration_ms=2_000.0, spec=NVIDIA_SHIELD, **overrides):
    sim = Simulator(seed=0)
    config = FleetConfig(**overrides)
    session = FleetSession(
        sim,
        SessionRequest(session_id="s000", app=app, arrival_ms=0.0),
        config,
        duration_ms=duration_ms,
    )
    node = FleetNode(sim, spec, on_complete=session.on_frame_complete)
    session.start(node)
    sim.run_until_event(session.finished, limit=60_000.0)
    return sim, session


class TestTiers:
    def test_tier_names_cover_the_genre_priorities(self):
        assert tier_name(0.0) == "action"
        assert tier_name(1.0) == "standard"
        assert tier_name(2.0) == "tolerant"
        assert tier_name(7.5) == "standard"     # unknown -> middle

    def test_session_inherits_app_tier(self):
        _, s = run_session(MODERN_COMBAT, duration_ms=100.0)
        assert s.tier == "action" and s.priority == 0.0

    def test_demand_scales_with_serve_rate(self):
        req = SessionRequest(session_id="x", app=CANDY_CRUSH, arrival_ms=0.0)
        assert req.demand_mp_per_ms(60.0) == 2 * req.demand_mp_per_ms(30.0)


class TestIssueLoop:
    def test_all_frames_answered_and_none_lost(self):
        _, s = run_session(CANDY_CRUSH)
        assert s.frames_issued > 0
        assert s.frames_lost == 0
        assert len(s.response_times_ms) == s.frames_issued
        assert not s.outstanding

    def test_light_app_hits_the_serve_rate(self):
        _, s = run_session(CANDY_CRUSH, duration_ms=2_000.0)
        # 30 Hz over 2 s: the pipeline never throttles a 30 MP app.
        assert s.frames_issued >= 59

    def test_pipeline_bounds_outstanding_frames(self):
        """A heavy app on a slow box self-throttles at pipeline_depth."""
        from repro.devices.profiles import MINIX_NEO_U1

        sim, s = run_session(MODERN_COMBAT, duration_ms=2_000.0,
                             spec=MINIX_NEO_U1, pipeline_depth=2)
        period_frames = int(2_000.0 / (1000.0 / 30.0))
        assert s.frames_issued < period_frames   # gate engaged
        assert s.frames_lost == 0

    def test_response_times_are_positive(self):
        _, s = run_session(GTA_SAN_ANDREAS, duration_ms=1_000.0)
        assert all(r > 0 for r in s.response_times_ms)
        assert s.mean_response_ms > 0


class TestOverloadedTicks:
    def test_a_full_pipeline_queues_no_tick(self, monkeypatch):
        """An overloaded fleet: nearly every issue fills its session's
        pipeline, so the tick after it would only set the gate.  The
        session keeps that tick's place instead of queueing it, and the
        tick runs only when an answer came before its place: well under
        one tick per frame."""
        from repro.experiments.fleet import run_fleet_point

        calls = {"_tick": 0, "_issue": 0}
        for name in calls:
            def counted(self, _original=getattr(FleetSession, name),
                        _name=name):
                calls[_name] += 1
                _original(self)

            monkeypatch.setattr(FleetSession, name, counted)
        point, _ = run_fleet_point(64, 4, 3_000.0, seed=1, crash=False)
        assert point.frames == calls["_issue"] > 1_000
        assert point.frames_lost == 0
        assert calls["_tick"] < calls["_issue"] / 2
