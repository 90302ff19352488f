"""The benchmark in ``bench/``, run in-process on a couple of ops.

Checks that every metric ``BENCHMARK.json`` names is emitted with its
unit, that the simulated outputs repeat exactly per seed, that a failed
op is counted rather than fatal, and that the traced per-layer split adds
up and shows the split the benchmark's workloads were chosen for.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from bench import RUN_SECONDS
from bench import __main__ as cli
from bench import measure
from bench.measure import LAYERS, end_to_end, op_seed, per_layer, run_workload
from bench.workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SIMULATED = (
    "sim_fps_p50", "sim_frames", "sim_response_ms_mean", "sim_frame_ms_p99"
)


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _emitted(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


def test_workload_names_match_the_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS) == list(cli.WORKLOADS)


def test_the_run_length_is_fixed():
    assert SPEC["run_seconds"] == RUN_SECONDS
    with pytest.raises(SystemExit):
        cli.main(["--workload", "session_g3", "--seconds", str(RUN_SECONDS + 1)])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_simulated_outputs_repeat_per_seed(name, monkeypatch):
    # One op per call; the two calls are the repeat.
    monkeypatch.setattr(measure, "MIN_PASSES", 1)
    first, second = (
        run_workload(WORKLOADS[name], seed=3, seeds=1) for _ in range(2)
    )
    metrics = end_to_end(first)
    # setup_s is timed by the launcher, around the child process.
    assert {**_emitted(metrics), "setup_s": "s"} == _units("end_to_end")
    assert (first.attempted, first.failed) == (1, 0)
    assert first.digest == second.digest
    again = end_to_end(second)
    assert [metrics[n] for n in SIMULATED] == [again[n] for n in SIMULATED]


def test_a_failed_op_is_counted_not_fatal():
    counts = dict.fromkeys(
        ("cache_hits", "cache_lookups", "wire_reduction", "retransmissions",
         "migrations", "spans"),
        0,
    )

    def op(seed):
        if seed == op_seed(5, 1):
            raise RuntimeError("injected")
        if seed == op_seed(5, 2):
            return Outcome(1.0, 0.0, [], counts=counts,
                           failure="no frame presented")
        return Outcome(1.0, 10.0, [20.0] * 10, counts=counts, fingerprint="ok")

    run = run_workload(replace(WORKLOADS["session_g3"], op=op), seed=5, seeds=4)
    assert (run.attempted, run.failed) == (8, 4)
    metrics = end_to_end(run)
    assert metrics["sim_frames"][0] == 10
    assert metrics["sim_response_ms_mean"][0] == 20.0


@pytest.mark.parametrize("name", ["session_g3", "fleet_128x16"])
def test_traced_run_splits_host_time_by_layer(name):
    metrics = per_layer(run_workload(WORKLOADS[name], seed=3, seeds=1, trace=True))
    assert _emitted(metrics) == _units("per_layer")
    shares = [metrics[f"layer.{layer}.share"][0] for layer in LAYERS]
    assert sum(shares) == pytest.approx(1.0, abs=0.02)
    if name == "fleet_128x16":
        # The fleet is a cost model: no GL commands, no codec.
        assert metrics["layer.gles.share"][0] < 0.01
        assert metrics["layer.codec.share"][0] < 0.01
    else:
        # Modelled compression runs LZ77 on one frame in 64.
        frames = metrics["codec.frames_per_op"][0]
        assert metrics["codec.lz77_calls_per_op"][0] <= frames / 64 + 1


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    env = {**os.environ, "PYTHONPATH": ""}
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "session_g3"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
