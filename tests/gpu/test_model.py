"""GPU execution engine: timing, FIFO, energy, throttle interaction."""

import pytest

from repro.gpu.model import GPUDevice, RenderRequest
from repro.gpu.profiles import ADRENO_330, TEGRA_X1
from repro.sim.kernel import Simulator


def make_request(request_id, fill_mp=36.0, commands=None):
    return RenderRequest(
        request_id=request_id,
        frame_id=request_id,
        commands=commands or [],
        fill_megapixels=fill_mp,
    )


class TestExecution:
    def test_execution_time_matches_fillrate(self):
        sim = Simulator()
        gpu = GPUDevice(sim, ADRENO_330)   # 3.6 GP/s == 3.6 MP/ms
        done = []
        gpu.on_complete = lambda c: done.append(c)
        gpu.submit(make_request(0, fill_mp=36.0))
        sim.run(until=100.0)
        assert len(done) == 1
        assert done[0].execution_ms == pytest.approx(10.0, rel=0.01)

    def test_fifo_order(self):
        sim = Simulator()
        gpu = GPUDevice(sim, ADRENO_330)
        done = []
        gpu.on_complete = lambda c: done.append(c.request.request_id)
        for i in range(4):
            gpu.submit(make_request(i, fill_mp=3.6))
        sim.run(until=100.0)
        assert done == [0, 1, 2, 3]

    def test_non_preemptive(self):
        """A long request delays a short one behind it (paper §VI-A)."""
        sim = Simulator()
        gpu = GPUDevice(sim, ADRENO_330)
        done = []
        gpu.on_complete = lambda c: done.append((c.request.request_id, sim.now))
        gpu.submit(make_request(0, fill_mp=360.0))  # 100 ms
        gpu.submit(make_request(1, fill_mp=3.6))    # 1 ms
        sim.run(until=300.0)
        assert done[0][0] == 0
        assert done[1][1] >= done[0][1] + 1.0

    def test_then_runs_at_completion(self):
        """Each request's continuation runs the instant it finishes, with
        its own completed render, before the next request starts."""
        sim = Simulator()
        gpu = GPUDevice(sim, ADRENO_330)
        log = []
        gpu.on_complete = lambda c: log.append(("complete", sim.now))
        for i in range(2):
            gpu.submit(
                make_request(i, fill_mp=3.6),
                lambda done: log.append(
                    (done.request.request_id, done.finished_at, sim.now,
                     gpu.busy.value)
                ),
            )
        sim.run(until=50.0)
        (_c0, t0), first, (_c1, t1), second = log
        assert first == (0, t0, t0, 0.0)
        assert second == (1, t1, t1, 0.0)
        assert t1 == pytest.approx(2 * t0)

    def test_faster_gpu_finishes_sooner(self):
        def run_on(spec):
            sim = Simulator()
            gpu = GPUDevice(sim, spec)
            done = []
            gpu.on_complete = lambda c: done.append(c.finished_at)
            gpu.submit(make_request(0, fill_mp=160.0))
            sim.run(until=1000.0)
            return done[0]

        assert run_on(TEGRA_X1) < run_on(ADRENO_330)

    def test_command_submit_overhead(self):
        sim = Simulator()
        gpu = GPUDevice(sim, ADRENO_330)
        done = []
        gpu.on_complete = lambda c: done.append(c)
        from repro.gles.commands import make_command

        cmds = [make_command("glFlush")] * 1000
        gpu.submit(make_request(0, fill_mp=3.6, commands=cmds))
        sim.run(until=100.0)
        assert done[0].execution_ms > 1.0  # fill time plus per-command cost


class TestEnergyAndThermal:
    def test_energy_accumulates_with_load(self):
        sim = Simulator()
        gpu = GPUDevice(sim, ADRENO_330)
        gpu.submit(make_request(0, fill_mp=360.0))  # 100 ms busy
        sim.run(until=200.0)
        energy = gpu.energy_joules()
        # 100 ms at ~2.98 W plus 100 ms idle at 0.08 W.
        expected = 0.1 * (
            ADRENO_330.idle_power_w + ADRENO_330.active_power_w
        ) + 0.1 * ADRENO_330.idle_power_w
        assert energy == pytest.approx(expected, rel=0.05)

    def test_utilization_gauge(self):
        sim = Simulator()
        gpu = GPUDevice(sim, ADRENO_330)
        gpu.submit(make_request(0, fill_mp=180.0))  # 50 ms
        sim.run(until=100.0)
        assert gpu.utilization() == pytest.approx(0.5, abs=0.05)

    def test_sustained_load_eventually_throttles(self):
        sim = Simulator()
        gpu = GPUDevice(sim, ADRENO_330, initial_temp_c=35.0)
        # Keep the GPU saturated for 15 simulated minutes.
        done = [0]

        def resubmit(completed):
            done[0] += 1
            gpu.submit(make_request(done[0], fill_mp=360.0))

        gpu.on_complete = resubmit
        gpu.submit(make_request(0, fill_mp=360.0))
        sim.run(until=900_000.0)
        freqs = [f for _t, f, _c in gpu.freq_trace]
        assert ADRENO_330.min_freq_mhz in freqs
        # Requests take longer once throttled.
        early = gpu.completed[5].execution_ms
        late = gpu.completed[-1].execution_ms
        assert late > early * 1.5

    def test_freq_trace_records_temperature(self):
        sim = Simulator()
        gpu = GPUDevice(sim, ADRENO_330)
        sim.run(until=5_000.0)
        assert len(gpu.freq_trace) >= 4
        t0, f0, c0 = gpu.freq_trace[0]
        assert f0 == ADRENO_330.max_freq_mhz
        assert c0 > 0
