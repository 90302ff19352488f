"""The profiling harness: artifact schema, determinism, trace coverage."""

import json

import pytest

from repro.experiments.gate import write_artifact, write_chrome
from repro.experiments.profiling import (
    BENCH_SCHEMA,
    MIN_TRACE_CATEGORIES,
    REQUIRED_STAGES,
    SPEC,
    bench_session,
    run_profile,
)
from repro.obs.export import validate_chrome_trace


@pytest.fixture(scope="module")
def smoke_bench(tmp_path_factory):
    trace = tmp_path_factory.mktemp("profile") / "trace.json"
    bench = run_profile(seed=0, smoke=True)
    write_chrome(str(trace), bench)
    return bench, trace


class TestArtifactSchema:
    def test_smoke_run_validates_clean(self, smoke_bench):
        bench, _ = smoke_bench
        assert SPEC.validate(bench) == []
        assert bench["schema"] == BENCH_SCHEMA

    def test_required_stages_have_percentiles(self, smoke_bench):
        bench, _ = smoke_bench
        stages = bench["deterministic"]["session"]["pipeline_stages"]
        for stage in REQUIRED_STAGES:
            for key in ("count", "p50", "p95", "p99"):
                assert key in stages[stage], (stage, key)
        # The session must actually exercise the client-side stages.
        assert stages["intercept"]["count"] > 0
        assert stages["encode"]["count"] > 0
        assert stages["present"]["count"] > 0
        assert stages["execute"]["count"] > 0

    def test_fleet_trace_loads_and_keeps_categories(self, smoke_bench):
        bench, trace_path = smoke_bench
        cats = bench["deterministic"]["fleet"]["span_categories"]
        assert len(cats) >= MIN_TRACE_CATEGORIES
        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []

    def test_validate_flags_drift(self, smoke_bench):
        bench, _ = smoke_bench
        broken = json.loads(json.dumps(bench))
        broken["schema"] = "other/2"
        del broken["deterministic"]["session"]["pipeline_stages"]["encode"]
        broken["deterministic"]["fleet"]["span_categories"] = ["fleet.queue"]
        del broken["deterministic"]["session"]["pipeline_stages"]["present"][
            "p99"
        ]
        problems = SPEC.validate(broken)
        assert any("schema" in p for p in problems)
        assert any("'encode'" in p for p in problems)
        assert any("categories" in p for p in problems)
        assert any("'present' missing 'p99'" in p for p in problems)

    def test_write_round_trips(self, smoke_bench, tmp_path):
        bench, _ = smoke_bench
        out = tmp_path / "bench.json"
        write_artifact(str(out), bench)
        written = json.loads(out.read_text())
        assert written == {k: bench[k] for k in ("schema", "deterministic")}


class TestDeterminism:
    def test_same_seed_same_session_section(self):
        a = bench_session(duration_ms=1_000.0, seed=3)
        b = bench_session(duration_ms=1_000.0, seed=3)
        assert a == b

    def test_different_seed_differs(self):
        a = bench_session(duration_ms=1_000.0, seed=3)
        b = bench_session(duration_ms=1_000.0, seed=4)
        assert a != b
