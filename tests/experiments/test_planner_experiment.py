"""The planner bench: adversarial matrix, fusion gains, drift drill."""

import json

import pytest

from repro.experiments.gate import seal
from repro.experiments.planner import (
    MATRIX_CELLS,
    SPEC,
    STATIC_POLICIES,
    format_bench,
    run_drift_drill,
    run_fusion_point,
    run_matrix_cell,
    run_planner_bench,
)


@pytest.fixture(scope="module")
def bench():
    return run_planner_bench(seed=0, smoke=True, workers=1)


class TestMatrix:
    def test_no_static_policy_matches_the_planner(self, bench):
        """The adversarial claim: every static policy loses somewhere."""
        matrix = bench["deterministic"]["matrix"]
        attainment = matrix["attainment"]
        n = matrix["n_cells"]
        assert attainment["planner"] == n
        for policy in STATIC_POLICIES:
            assert attainment[policy] < n, (
                f"{policy} matched every cell — the matrix is no longer "
                "adversarial"
            )

    def test_each_static_policy_strictly_loses_a_cell(self, bench):
        cells = bench["deterministic"]["matrix"]["cells"]
        for policy in STATIC_POLICIES:
            beaten = [
                c["name"] for c in cells
                if not c["policies"][policy]["viable"]
                or c["policies"][policy]["score"]
                > c["policies"]["planner"]["score"]
            ]
            assert beaten, f"{policy} never lost a cell"

    def test_planner_commits_the_per_cell_minimum(self, bench):
        for cell in bench["deterministic"]["matrix"]["cells"]:
            scores = cell["scores"]
            assert cell["committed"] == min(
                scores, key=lambda b: (scores[b], b)
            )

    def test_rejections_explain_missing_backends(self):
        cell = next(c for c in MATRIX_CELLS if c["name"] == "hotel_wan")
        result = run_matrix_cell(cell, seed=0, probe_frames=4)
        assert "no service device" in result["rejected"]["wifi"]
        assert "wan" not in result["rejected"]


class TestFusion:
    def test_fusion_reduces_bytes_for_every_genre(self, bench):
        for point in bench["deterministic"]["fusion"]:
            assert point["byte_reduction"] > 0.0
            assert point["command_conservation"]

    def test_fusion_point_is_deterministic(self):
        a = run_fusion_point("G1", seed=2, frames=20)
        b = run_fusion_point("G1", seed=2, frames=20)
        assert a == b


class TestDrill:
    def test_degradation_replans_and_recovers(self, bench):
        drill = bench["deterministic"]["drift"]
        assert drill["replans"] >= 1
        assert drill["replan_epoch"] >= drill["degrade_at_epoch"]
        assert drill["post_backend"] != drill["initial_backend"]
        assert drill["recovered"]
        assert drill["post_latency_ms"] < drill["degraded_latency_ms"]

    def test_drill_is_deterministic(self):
        a = run_drift_drill(seed=5, probe_frames=4)
        b = run_drift_drill(seed=5, probe_frames=4)
        assert a == b


class TestHarness:
    def test_validate_accepts_the_real_artifact(self, bench):
        assert SPEC.validate(bench) == []

    def test_validate_rejects_garbage(self):
        assert SPEC.validate([]) != []
        assert SPEC.validate({"schema": "nope"}) != []

    def test_validate_catches_a_dominated_planner(self, bench):
        broken = json.loads(json.dumps(bench))
        att = broken["deterministic"]["matrix"]["attainment"]
        att["always_wifi"] = att["planner"]
        assert any("always_wifi" in p for p in SPEC.validate(broken))

    def test_baseline_diff_self_is_clean(self, bench):
        drift, skip = SPEC.diff(bench, bench)
        assert skip is None
        assert drift == []

    def test_baseline_diff_flags_score_regression(self, bench):
        worse = json.loads(json.dumps(bench))
        cell = worse["deterministic"]["matrix"]["cells"][0]
        cell["policies"]["planner"]["score"] *= 1.5
        seal(worse["deterministic"])
        drift, skip = SPEC.diff(worse, bench)
        assert skip is None
        path = "deterministic.matrix.cells[0].policies.planner.score"
        assert any(r.startswith(path + ": ") for r in drift)

    def test_baseline_diff_skips_incomparable_runs(self, bench):
        other = json.loads(json.dumps(bench))
        other["deterministic"]["seed"] = 999
        _, skip = SPEC.diff(bench, other)
        assert skip is not None

    def test_format_bench_renders(self, bench):
        text = format_bench(bench)
        assert "drift drill" in text
        for cell in MATRIX_CELLS:
            assert cell["name"] in text
