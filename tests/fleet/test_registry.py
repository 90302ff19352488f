"""Device registry: heartbeats, liveness, membership hooks."""

from repro.devices.profiles import MINIX_NEO_U1, NVIDIA_SHIELD
from repro.fleet.registry import HEARTBEAT_INTERVAL_MS


class TestHeartbeats:
    def test_heartbeat_carries_real_workload(self, make_registry):
        sim, registry = make_registry()
        workload = [12.5]
        registry.register(NVIDIA_SHIELD, rtt_ms=3.0,
                          probe=lambda: (workload[0], 2))
        sim.run(until=600.0)
        dev = registry.devices[NVIDIA_SHIELD.name]
        assert dev.last_heartbeat.queued_workload_mp == 12.5
        assert dev.last_heartbeat.active_sessions == 2
        workload[0] = 99.0
        sim.run(until=900.0)
        assert dev.last_heartbeat.queued_workload_mp == 99.0

    def test_registration_is_idempotent(self, make_registry):
        sim, registry = make_registry()
        first = registry.register(NVIDIA_SHIELD, rtt_ms=3.0,
                                  probe=lambda: (0.0, 0))
        again = registry.register(NVIDIA_SHIELD, rtt_ms=9.0,
                                  probe=lambda: (1.0, 1))
        assert first is again
        assert first.rtt_ms == 3.0


class TestLiveness:
    def test_silent_device_is_declared_down(self, make_registry):
        sim, registry = make_registry()
        alive = [True]
        lost = []
        registry.on_lost = lost.append
        registry.register(NVIDIA_SHIELD, rtt_ms=3.0,
                          probe=lambda: (0.0, 0) if alive[0] else None)
        sim.run(until=500.0)
        alive[0] = False
        sim.run(until=2_000.0)
        dev = registry.devices[NVIDIA_SHIELD.name]
        assert dev.state == "down"
        assert [d.name for d in lost] == [NVIDIA_SHIELD.name]
        assert registry.up_devices() == []

    def test_detection_needs_the_full_timeout(self, make_registry):
        sim, registry = make_registry()
        alive = [True]
        registry.register(NVIDIA_SHIELD, rtt_ms=3.0,
                          probe=lambda: (0.0, 0) if alive[0] else None)
        sim.run(until=500.0)
        alive[0] = False
        # One missed beat is not enough (timeout is 3 intervals).
        sim.run(until=sim.now + HEARTBEAT_INTERVAL_MS + 1)
        assert registry.devices[NVIDIA_SHIELD.name].state == "up"

    def test_resumed_heartbeats_bring_the_device_back(self, make_registry):
        sim, registry = make_registry()
        alive = [True]
        joins = []
        registry.on_join = joins.append
        dev = registry.register(NVIDIA_SHIELD, rtt_ms=3.0,
                                probe=lambda: (0.0, 0) if alive[0] else None)
        sim.run(until=500.0)
        alive[0] = False
        sim.run(until=3_000.0)
        assert dev.state == "down"
        alive[0] = True
        sim.run(until=4_000.0)
        assert dev.state == "up"
        assert dev.joins == 2          # registration + recovery
        assert dev.losses == 1
        # on_join fired at registration and again at recovery.
        assert len(joins) == 2

    def test_devices_monitored_independently(self, make_registry):
        sim, registry = make_registry()
        alive = {NVIDIA_SHIELD.name: True, MINIX_NEO_U1.name: True}

        def probe_for(spec):
            return lambda: (0.0, 0) if alive[spec.name] else None

        registry.register(NVIDIA_SHIELD, rtt_ms=3.0,
                          probe=probe_for(NVIDIA_SHIELD))
        registry.register(MINIX_NEO_U1, rtt_ms=5.0,
                          probe=probe_for(MINIX_NEO_U1))
        sim.run(until=500.0)
        alive[MINIX_NEO_U1.name] = False
        sim.run(until=3_000.0)
        states = {name: d.state for name, d in registry.devices.items()}
        assert states[NVIDIA_SHIELD.name] == "up"
        assert states[MINIX_NEO_U1.name] == "down"
        assert [d.name for d in registry.up_devices()] == [NVIDIA_SHIELD.name]
