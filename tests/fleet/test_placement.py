"""Session placement and rebalancing plans."""

from repro.apps.games import CANDY_CRUSH, MODERN_COMBAT
from repro.devices.profiles import DELL_OPTIPLEX_9010, MINIX_NEO_U1, NVIDIA_SHIELD
from repro.fleet import (
    FleetConfig,
    FleetNode,
    FleetSession,
    SessionPlacer,
    SessionRequest,
)


def session(sim, config, i, app=MODERN_COMBAT):
    req = SessionRequest(session_id=f"s{i:03d}", app=app, arrival_ms=0.0)
    return FleetSession(sim, req, config, duration_ms=10_000.0)


class TestPlace:
    def test_prefers_the_most_capable_idle_device(self, make_world):
        sim, config, placer, nodes = make_world(
            [MINIX_NEO_U1, DELL_OPTIPLEX_9010]
        )
        chosen = placer.place(
            session(sim, config, 0), nodes,
            committed_mp_per_ms={}, rtt_ms={},
        )
        assert chosen.name == DELL_OPTIPLEX_9010.name

    def test_committed_demand_steers_away_from_hot_devices(self, make_world):
        sim, config, placer, nodes = make_world(
            [NVIDIA_SHIELD, DELL_OPTIPLEX_9010]
        )
        hot = {DELL_OPTIPLEX_9010.name: 40.0}   # MP/ms already committed
        chosen = placer.place(
            session(sim, config, 0), nodes,
            committed_mp_per_ms=hot, rtt_ms={},
        )
        assert chosen.name == NVIDIA_SHIELD.name

    def test_failed_nodes_are_never_chosen(self, make_world):
        sim, config, placer, nodes = make_world(
            [NVIDIA_SHIELD, MINIX_NEO_U1]
        )
        nodes[0].fail()
        chosen = placer.place(
            session(sim, config, 0), nodes,
            committed_mp_per_ms={}, rtt_ms={},
        )
        assert chosen.name == MINIX_NEO_U1.name

    def test_rtt_breaks_capacity_ties(self, make_world):
        sim, config, placer, nodes = make_world([NVIDIA_SHIELD])
        import dataclasses

        twin = dataclasses.replace(NVIDIA_SHIELD, name="Shield twin")
        nodes.append(FleetNode(sim, twin))
        chosen = placer.place(
            session(sim, config, 0), nodes,
            committed_mp_per_ms={},
            rtt_ms={NVIDIA_SHIELD.name: 30.0, "Shield twin": 1.0},
        )
        assert chosen.name == "Shield twin"


class TestRebalance:
    def test_no_moves_when_balanced(self, make_world):
        sim, config, placer, nodes = make_world([NVIDIA_SHIELD, NVIDIA_SHIELD])
        # Two identical boxes, identical commitments: nothing to do.
        import dataclasses

        nodes[1] = FleetNode(
            sim, dataclasses.replace(NVIDIA_SHIELD, name="Shield B")
        )
        committed = {NVIDIA_SHIELD.name: 5.0, "Shield B": 5.0}
        moves = placer.plan_rebalance({}, nodes, committed)
        assert moves == []

    def test_moves_tolerant_sessions_from_hot_to_cool(self, make_world):
        sim, config, placer, nodes = make_world(
            [NVIDIA_SHIELD, DELL_OPTIPLEX_9010]
        )
        shield, desktop = nodes
        tolerant = session(sim, config, 0, CANDY_CRUSH)
        urgent = session(sim, config, 1, MODERN_COMBAT)
        tolerant.set_node(shield)
        urgent.set_node(shield)
        committed = {
            shield.name: tolerant.demand_mp_per_ms + urgent.demand_mp_per_ms,
            desktop.name: 0.0,
        }
        moves = placer.plan_rebalance(
            {shield.name: [tolerant, urgent]}, nodes, committed
        )
        assert moves
        first = moves[0]
        assert first.session is tolerant       # tolerant tier moves first
        assert first.source is shield
        assert first.target is desktop

    def test_cooldown_protects_recent_migrants(self, make_world):
        sim, config, placer, nodes = make_world(
            [NVIDIA_SHIELD, DELL_OPTIPLEX_9010]
        )
        shield = nodes[0]
        sess = session(sim, config, 0)
        sess.set_node(shield)
        sess.last_migration_ms = 0.0           # just moved
        sim.run(until=100.0)
        committed = {shield.name: 50.0, nodes[1].name: 0.0}
        moves = placer.plan_rebalance(
            {shield.name: [sess]}, nodes, committed
        )
        assert moves == []

    def test_moves_per_cycle_are_bounded(self, make_world):
        sim, config, placer, nodes = make_world(
            [NVIDIA_SHIELD, DELL_OPTIPLEX_9010], max_moves_per_cycle=1
        )
        shield = nodes[0]
        sessions = []
        for i in range(4):
            s = session(sim, config, i)
            s.set_node(shield)
            s.last_migration_ms = -10_000.0
            sessions.append(s)
        committed = {
            shield.name: sum(s.demand_mp_per_ms for s in sessions),
            nodes[1].name: 0.0,
        }
        moves = placer.plan_rebalance(
            {shield.name: sessions}, nodes, committed
        )
        assert len(moves) <= 1
