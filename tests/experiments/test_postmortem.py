"""The postmortem harness: incident, control, shard merge, and the gate."""

import copy
import json

import pytest

from repro.experiments.postmortem import (
    BENCH_POSTMORTEM_SCHEMA,
    DECISION_COMPONENTS,
    MIN_TRACE_COMPONENTS,
    SPEC,
    format_bench,
    run_postmortem_bench,
    run_postmortem_control,
    run_postmortem_incident,
    run_postmortem_shards,
    write_bundle,
)
from repro.experiments.gate import seal, write_artifact, write_chrome
from repro.obs.export import validate_chrome_trace
from repro.obs.flight import validate_bundle

# The incident needs the full smoke-scale window: the burst sits at
# 40-75% of the run, and the trace must catch a frame that completed a
# whole round trip through the replay fast path before the page fires.
DURATION_MS = 6_000.0


@pytest.fixture(scope="module")
def incident():
    return run_postmortem_incident(DURATION_MS, seed=0)


class TestIncident:
    def test_loss_burst_freezes_an_explainable_bundle(self, incident):
        bundle = incident["summary"]["bundle"]
        assert bundle is not None
        assert validate_bundle(bundle) == []
        components = bundle["causal_components"]
        assert len(components) >= MIN_TRACE_COMPONENTS
        for required in ("client", "net", "server"):
            assert required in components
        assert any(c in components for c in DECISION_COMPONENTS)
        assert bundle["trigger"]["trace_id"]
        # The trigger's trace id resolves inside its own bundle.
        assert all(
            e["trace_id"] == bundle["trigger"]["trace_id"]
            for e in bundle["causal_trace"]
        )

    def test_every_breach_alert_carries_resolvable_exemplars(self, incident):
        audit = incident["summary"]["alert_audit"]
        assert audit["alerts"] > 0
        assert audit["alerts_with_exemplars"] == audit["alerts"]
        assert audit["exemplars"] > 0
        assert audit["exemplars_resolved"] == audit["exemplars"]

    def test_warm_hub_serves_the_victim(self, incident):
        replay = incident["summary"]["replay"]
        assert replay["hits"] > 0
        assert incident["summary"]["trace_header_bytes"] > 0

    def test_chrome_trace_merges_both_sessions_with_flows(self, incident):
        chrome = incident["chrome"]
        assert validate_chrome_trace(chrome) == []
        sessions = {p["session"] for p in chrome["otherData"]["parts"]}
        assert sessions == {"recorder", "victim"}
        phases = {e["ph"] for e in chrome["traceEvents"]}
        assert {"s", "t", "f"} <= phases
        assert any(
            e.get("cat") == "alert" for e in chrome["traceEvents"]
        )


class TestControl:
    def test_recorder_stays_silent_on_a_healthy_run(self):
        control = run_postmortem_control(DURATION_MS, seed=0)
        assert control["flight"]["bundles"] == 0
        assert control["page_alerts"] == 0
        assert control["frames_presented"] > 0
        assert control["causal"]["events"] > 0


class TestShardMerge:
    def test_merge_is_a_pure_function_of_shard_contents(self):
        out = run_postmortem_shards(2_000.0, seed=0)
        banks = out["banks"]
        assert [b["shard"] for b in banks] == [0, 1]
        assert out["merged"]["events"] == sum(b["events"] for b in banks)
        merged = out["merged_exemplars"]
        assert merged
        assert all("value" in e and e["trace_id"] for e in merged)
        # The merged tail keeps the worst values, worst first.
        values = [e["value"] for e in merged]
        assert values == sorted(values, reverse=True)


class TestBenchArtifact:
    @pytest.fixture(scope="class")
    def bench(self):
        return run_postmortem_bench(seed=0, smoke=True)

    def test_schema_and_acceptance_gates(self, bench):
        assert bench["schema"] == BENCH_POSTMORTEM_SCHEMA
        assert SPEC.validate(bench) == []

    def test_worker_count_does_not_change_the_bytes(self, bench):
        again = run_postmortem_bench(seed=0, smoke=True, workers=2)
        assert json.dumps(again, sort_keys=True) == json.dumps(
            bench, sort_keys=True
        )

    def test_write_artifacts(self, bench, tmp_path):
        bench_path = tmp_path / "bench.json"
        bundle_path = tmp_path / "bundle.json"
        trace_path = tmp_path / "trace.json"
        write_artifact(str(bench_path), bench)
        write_bundle(str(bundle_path), bench)
        write_chrome(str(trace_path), bench)
        written = json.loads(bench_path.read_text())
        assert "chrome" not in written     # digest-gated file stays slim
        assert SPEC.validate(written) == []
        bundle = json.loads(bundle_path.read_text())
        assert validate_bundle(bundle) == []
        assert validate_chrome_trace(json.loads(trace_path.read_text())) == []

    def test_format_tells_the_triage_story(self, bench):
        text = format_bench(bench)
        assert "trigger:" in text
        assert "the triggering frame's journey:" in text
        assert "exemplar traces resolved" in text
        trace_id = bench["deterministic"]["incident"]["bundle"][
            "trigger"
        ]["trace_id"]
        assert trace_id in text

    def test_validate_flags_missing_bundle(self, bench):
        broken = copy.deepcopy(bench)
        broken["deterministic"]["incident"]["bundle"] = None
        assert any(
            "froze no flight bundle" in p for p in SPEC.validate(broken)
        )

    def test_validate_flags_unexplained_alert(self, bench):
        broken = copy.deepcopy(bench)
        audit = broken["deterministic"]["incident"]["alert_audit"]
        audit["alerts_with_exemplars"] = audit["alerts"] - 1
        assert any(
            "no exemplar trace ids" in p for p in SPEC.validate(broken)
        )

    def test_validate_flags_noisy_control(self, bench):
        broken = copy.deepcopy(bench)
        broken["deterministic"]["control"]["flight"]["bundles"] = 1
        assert any("healthy run" in p for p in SPEC.validate(broken))


class TestRegressionGate:
    @pytest.fixture(scope="class")
    def bench(self):
        return run_postmortem_bench(seed=0, smoke=True)

    def test_identical_artifacts_pass(self, bench):
        drift, skip = SPEC.diff(bench, bench)
        assert drift == [] and skip is None

    def test_seed_mismatch_skips_not_fails(self, bench):
        other = copy.deepcopy(bench)
        other["deterministic"]["seed"] = 99
        drift, skip = SPEC.diff(bench, other)
        assert drift == []
        assert skip is not None and "seed" in skip

    def test_digest_drift_names_the_moved_section(self, bench):
        drifted = copy.deepcopy(bench)
        drifted["deterministic"]["control"]["median_fps"] += 1.0
        seal(drifted["deterministic"])
        drift, skip = SPEC.diff(drifted, bench)
        assert skip is None
        assert any("digest drifted" in r for r in drift)
        assert any(
            r.startswith("deterministic.control.median_fps: ") for r in drift
        )
        assert not any(r.startswith("deterministic.shards") for r in drift)

    def test_bundle_drift_called_out_explicitly(self, bench):
        drifted = copy.deepcopy(bench)
        drifted["deterministic"]["incident"]["bundle"]["digest"] = "f" * 64
        seal(drifted["deterministic"])
        drift, _ = SPEC.diff(drifted, bench)
        assert any(
            r.startswith("deterministic.incident.bundle.digest: ")
            and r.endswith(f'→ "{"f" * 64}"')
            for r in drift
        )
