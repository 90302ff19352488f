"""Experiment runners produce paper-shaped outputs (short durations)."""

import pytest

from repro.apps.games import CANDY_CRUSH, GTA_SAN_ANDREAS
from repro.devices.profiles import LG_G4, LG_NEXUS_5
from repro.experiments.acceleration import (
    format_rows,
    run_acceleration_cell,
    run_figure5,
)
from repro.experiments.cloud_comparison import run_cloud_platform_average
from repro.experiments.energy import format_rows as format_energy_rows
from repro.experiments.energy import run_energy_cell, run_figure6
from repro.experiments.multidevice import format_points, run_figure7
from repro.experiments.overhead import run_overhead_experiment, run_table3
from repro.experiments.thermal import run_figure1, run_motivation_power
from repro.experiments.traffic import (
    estimate_raw_traffic,
    measure_command_reduction,
    measure_image_codecs,
)

SHORT = 25_000.0


class TestFig1:
    def test_thermal_trace_shape(self):
        result = run_figure1(duration_s=1800.0)
        assert result.initial_freq_mhz == LG_G4.gpu.max_freq_mhz
        assert result.throttled_freq_mhz == LG_G4.gpu.min_freq_mhz
        assert 8 * 60 <= result.throttle_time_s <= 13 * 60

    def test_motivation_power_gpu_dominates(self):
        result = run_motivation_power(LG_NEXUS_5)
        assert 2.5 <= result.gpu_power_w <= 3.5   # paper: ~3 W
        assert result.ratio >= 4.0                 # ~5x the CPU


class TestFig5Cell:
    def test_action_game_cell(self):
        row = run_acceleration_cell(
            GTA_SAN_ANDREAS, LG_NEXUS_5, duration_ms=SHORT
        )
        assert row.boosted_fps > row.local_fps
        assert row.fps_boost_percent > 30.0
        assert "G1" in format_rows([row])


class TestFig6Cell:
    def test_energy_cell_ordering(self):
        row = run_energy_cell(GTA_SAN_ANDREAS, LG_NEXUS_5, duration_ms=SHORT)
        assert row.normalized_with_switching < 1.0
        assert row.switching_benefit > 0.0
        assert "G1" in format_energy_rows([row])


class TestPaperMatrixFanOut:
    """The Fig 5/6 matrices run their cells on worker processes; the rows
    must be the serial rows, in matrix order."""

    MATRIX = dict(
        duration_ms=2_000.0, games=["G1", "G5"], devices=[LG_NEXUS_5, LG_G4],
    )

    def test_fig5_two_workers_equal_serial(self):
        parallel = run_figure5(workers=2, **self.MATRIX)
        assert parallel == run_figure5(workers=1, **self.MATRIX)
        assert [(r.device, r.game) for r in parallel] == [
            (d.name, g) for d in self.MATRIX["devices"]
            for g in self.MATRIX["games"]
        ]

    def test_fig6_two_workers_equal_serial(self):
        parallel = run_figure6(workers=2, **self.MATRIX)
        assert parallel == run_figure6(workers=1, **self.MATRIX)
        assert [(r.device, r.game) for r in parallel] == [
            (d.name, g) for d in self.MATRIX["devices"]
            for g in self.MATRIX["games"]
        ]


class TestFig7:
    def test_multi_device_curve(self):
        points = run_figure7(max_devices=3, duration_ms=SHORT)
        fps = {p.n_devices: p.median_fps for p in points}
        assert fps[1] > fps[0]           # offloading helps
        assert fps[3] > fps[1]           # parallelism helps more
        assert "devices" in format_points(points)


class TestTable3:
    def test_non_gaming_rows(self):
        rows = run_table3(duration_ms=SHORT, apps=["A1"])
        row = rows[0]
        assert abs(row.fps_boost) <= 1.0           # paper: zero boost
        assert 0.80 <= row.normalized_energy <= 1.0


class TestOverhead:
    def test_memory_and_cpu_delta(self):
        report = run_overhead_experiment(duration_ms=SHORT)
        assert 25.0 <= report.memory_mb <= 75.0    # paper: 47.8 MB
        assert report.cpu_offloaded_util > report.cpu_local_util
        assert 2.0 <= report.cpu_delta_points <= 25.0


class TestTraffic:
    def test_raw_traffic_enormous(self):
        estimate = estimate_raw_traffic(width=600, height=480, fps=25.0)
        # The paper quotes ~200 Mbps for this setting.
        assert 120.0 <= estimate.total_mbps <= 320.0
        assert estimate.raw_image_mbps > estimate.raw_command_mbps

    def test_command_reduction(self):
        result = measure_command_reduction(frames=80)
        assert result.overall_reduction > 0.5
        assert result.cache_hit_rate > 0.5
        assert result.lz_only_ratio < 0.6

    def test_image_codecs(self):
        result = measure_image_codecs(frames=15)
        assert result.turbo_keeps_up
        assert not result.x264_keeps_up
        assert result.turbo_ratio > 8.0


class TestCloud:
    def test_platform_average(self):
        avg = run_cloud_platform_average(duration_s=30.0)
        assert avg.median_fps <= 31.0
        assert avg.mean_response_ms > 100.0
