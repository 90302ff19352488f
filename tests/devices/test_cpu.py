"""CPU utilization and power accounting."""

import pytest

from repro.devices.cpu import CPUModel, SNAPDRAGON_800
from repro.sim.kernel import Simulator
from tests.coroutines import spawn


def test_additive_load_sources():
    sim = Simulator()
    cpu = CPUModel(sim, SNAPDRAGON_800)
    cpu.set_load("game", 0.4)
    cpu.set_load("offload", 0.2)
    assert cpu.total_utilization() == pytest.approx(0.6)


def test_load_clamped_at_one():
    sim = Simulator()
    cpu = CPUModel(sim, SNAPDRAGON_800)
    cpu.set_load("a", 0.8)
    cpu.set_load("b", 0.9)
    assert cpu.total_utilization() == 1.0


def test_zero_load_removes_source():
    sim = Simulator()
    cpu = CPUModel(sim, SNAPDRAGON_800)
    cpu.set_load("a", 0.5)
    cpu.set_load("a", 0.0)
    assert cpu.total_utilization() == 0.0
    assert cpu.load_of("a") == 0.0


def test_power_interpolates_idle_to_active():
    sim = Simulator()
    cpu = CPUModel(sim, SNAPDRAGON_800)
    assert cpu.power.value == pytest.approx(SNAPDRAGON_800.idle_power_w)
    cpu.set_load("x", 1.0)
    assert cpu.power.value == pytest.approx(SNAPDRAGON_800.active_power_w)
    cpu.set_load("x", 0.5)
    midpoint = (
        SNAPDRAGON_800.idle_power_w
        + (SNAPDRAGON_800.active_power_w - SNAPDRAGON_800.idle_power_w) * 0.5
    )
    assert cpu.power.value == pytest.approx(midpoint)


def test_energy_integrates_over_time():
    sim = Simulator()
    cpu = CPUModel(sim, SNAPDRAGON_800)

    def proc():
        cpu.set_load("x", 1.0)
        yield 1_000.0
        cpu.set_load("x", 0.0)
        yield 1_000.0

    spawn(sim, proc())
    sim.run()
    expected = SNAPDRAGON_800.active_power_w + SNAPDRAGON_800.idle_power_w
    assert cpu.energy_joules() == pytest.approx(expected, rel=0.01)


def test_mean_utilization():
    sim = Simulator()
    cpu = CPUModel(sim, SNAPDRAGON_800)

    def proc():
        cpu.set_load("x", 1.0)
        yield 500.0
        cpu.set_load("x", 0.0)
        yield 500.0

    spawn(sim, proc())
    sim.run()
    assert cpu.mean_utilization() == pytest.approx(0.5, abs=0.01)


def test_invalid_load_rejected():
    sim = Simulator()
    cpu = CPUModel(sim, SNAPDRAGON_800)
    with pytest.raises(ValueError):
        cpu.set_load("x", 1.5)
    with pytest.raises(ValueError):
        cpu.set_load("x", -0.1)
