"""The one gate every ``BENCH_*`` experiment goes through."""

import argparse
import json
import re
from pathlib import Path

import pytest

from repro.experiments import capacity, planner
from repro.experiments.gate import (
    BASELINE_DIR,
    MAX_MOVED,
    BenchSpec,
    bench_specs,
    check_baseline,
    gate,
    seal,
)

REPO = Path(__file__).resolve().parents[2]


def artifact(value, seed=0, smoke=True, schema="test.fake/1"):
    det = {"seed": seed, "smoke": smoke, "value": value}
    return {"schema": schema, "deterministic": seal(det)}


def fake_spec(*values, schema="test.fake/1"):
    """A spec whose successive runs return ``values`` (the last repeats)."""
    queue = list(values)

    def run(seed, smoke, workers):
        value = queue.pop(0) if len(queue) > 1 else queue[0]
        return artifact(value, seed, smoke, schema)

    def checks(det):
        return ["value is negative"] if det["value"] == -1 else []

    def write_note(path, bench):
        Path(path).write_text(str(bench["deterministic"]["value"]))

    return BenchSpec(
        name="fake",
        schema="test.fake/1",
        artifact="BENCH_FAKE.json",
        run=run,
        checks=checks,
        format=lambda bench: f"value {bench['deterministic']['value']}",
        side_files=(("--note-out", "FAKE_NOTE.txt", write_note),),
    )


@pytest.fixture(autouse=True)
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / BASELINE_DIR).mkdir(parents=True)
    return tmp_path


def commit_baseline(bench, name="BENCH_FAKE.json"):
    path = Path(BASELINE_DIR) / name
    path.write_text(json.dumps(bench))
    return path


def cli_args(seed=0, smoke=True):
    return argparse.Namespace(
        seed=seed, smoke=smoke, workers=1,
        out="BENCH_FAKE.json", note_out="FAKE_NOTE.txt",
    )


def run_gate(spec, **kwargs):
    """Run the gate; return its failure message, or None on success."""
    try:
        gate(spec, cli_args(**kwargs))
    except SystemExit as exc:
        assert exc.code not in (None, 0)
        return str(exc.code)
    return None


class TestGateExits:
    def test_clean_run_passes_and_writes_everything(self, capsys):
        commit_baseline(artifact(10))
        assert run_gate(fake_spec(10)) is None
        out = capsys.readouterr().out
        assert "value 10" in out
        assert "wrote BENCH_FAKE.json, FAKE_NOTE.txt" in out
        assert f"baseline diff vs {BASELINE_DIR}/BENCH_FAKE.json: ok" in out
        assert out.rstrip().endswith("fake smoke: ok")
        assert json.loads(Path("BENCH_FAKE.json").read_text()) == artifact(10)
        assert Path("FAKE_NOTE.txt").read_text() == "10"

    def test_acceptance_problem_fails_after_writing(self):
        commit_baseline(artifact(10))
        message = run_gate(fake_spec(-1))
        assert message.startswith("fake: acceptance gate failed:")
        assert "value is negative" in message
        assert Path("BENCH_FAKE.json").exists()

    def test_schema_problem_fails_after_writing(self):
        commit_baseline(artifact(10))
        message = run_gate(fake_spec(10, schema="test.fake/0"))
        assert "'schema' must be 'test.fake/1'" in message
        assert Path("BENCH_FAKE.json").exists()

    def test_same_seed_rerun_that_differs_fails(self):
        commit_baseline(artifact(10))
        message = run_gate(fake_spec(10, 11))
        assert message == "fake smoke: same seed, different artifact"

    def test_stale_baseline_digest_fails(self):
        stale = artifact(10)
        stale["deterministic"]["digest"] = "0" * 64
        commit_baseline(stale)
        message = run_gate(fake_spec(10))
        assert message.startswith(
            f"fake: baseline {BASELINE_DIR}/BENCH_FAKE.json is invalid:"
        )
        assert "'deterministic.digest' does not match its content" in message

    def test_hand_edited_baseline_with_its_old_digest_is_invalid(self):
        edited = artifact(10)
        edited["deterministic"]["value"] = 10.5
        commit_baseline(edited)
        message = run_gate(fake_spec(10))
        assert "is invalid" in message
        assert "'deterministic.digest' does not match its content" in message

    def test_changed_leaf_fails_with_its_path_and_values(self):
        commit_baseline(artifact({"a": [1, 2], "b": "x"}))
        message = run_gate(fake_spec({"a": [1, 3], "c": True}))
        assert message.startswith(
            f"fake: drift from {BASELINE_DIR}/BENCH_FAKE.json:"
        )
        assert "artifact digest drifted" in message
        assert "deterministic.value.a[1]: 2 → 3" in message
        assert 'deterministic.value.b: "x" → (absent)' in message
        assert "deterministic.value.c: (absent) → true" in message
        assert "deterministic.value.a[0]" not in message
        assert "deterministic.digest:" not in message
        assert (
            f"python -m repro fake --smoke --out {BASELINE_DIR}/BENCH_FAKE.json"
            in message
        )

    def test_drift_names_at_most_the_cap_then_counts_the_rest(self):
        n = MAX_MOVED + 7
        commit_baseline(artifact(list(range(n))))
        message = run_gate(fake_spec([i + 1 for i in range(n)]))
        moved = [line for line in message.splitlines() if "→" in line]
        # the digest headline plus MAX_MOVED named values
        assert len(moved) == 1 + MAX_MOVED
        assert f"deterministic.value[{MAX_MOVED - 1}]" in message
        assert f"deterministic.value[{MAX_MOVED}]" not in message
        assert "… and 7 more" in message
        assert message.rstrip().endswith("and record the old -> new digest")

    def test_missing_baseline_fails_under_smoke(self):
        message = run_gate(fake_spec(10))
        assert "no baseline at" in message

    def test_missing_baseline_skips_without_smoke(self, capsys):
        assert run_gate(fake_spec(10), smoke=False) is None
        assert "diff skipped" in capsys.readouterr().out

    def test_unreadable_baseline_fails(self):
        (Path(BASELINE_DIR) / "BENCH_FAKE.json").write_text('{"schema": ')
        message = run_gate(fake_spec(10))
        assert "is unreadable" in message

    def test_invalid_baseline_fails_with_its_problems(self):
        commit_baseline({"schema": "test.fake/1"})
        message = run_gate(fake_spec(10))
        assert "is invalid" in message
        assert "missing 'deterministic' section" in message

    def test_baseline_of_another_schema_is_invalid(self):
        commit_baseline(artifact(10, schema="test.fake/0"))
        message = run_gate(fake_spec(10))
        assert "is invalid" in message
        assert "'schema' must be 'test.fake/1'" in message

    def test_seed_mismatch_skips_the_diff(self, capsys):
        commit_baseline(artifact(10))
        assert run_gate(fake_spec(10), seed=3) is None
        out = capsys.readouterr().out
        assert "baseline diff skipped: baseline is seed=0" in out
        assert "not comparable" in out
        assert "fake smoke: ok" in out


class TestMalformedRealBaselines:
    """Each spec validates its baseline before diffing: no tracebacks."""

    def committed(self, spec):
        return json.loads((REPO / spec.baseline).read_text())

    def test_capacity_point_without_devices(self):
        good = self.committed(capacity.SPEC)
        bad = json.loads(json.dumps(good))
        del bad["deterministic"]["points"][0]["devices"]
        commit_baseline(bad, capacity.SPEC.artifact)
        with pytest.raises(SystemExit) as exc:
            check_baseline(capacity.SPEC, good, smoke=True)
        assert "points[0] missing 'devices'" in str(exc.value.code)

    def test_planner_cell_without_a_score(self):
        good = self.committed(planner.SPEC)
        bad = json.loads(json.dumps(good))
        del bad["deterministic"]["matrix"]["cells"][0]["policies"]
        commit_baseline(bad, planner.SPEC.artifact)
        with pytest.raises(SystemExit) as exc:
            check_baseline(planner.SPEC, good, smoke=True)
        assert "cell 0 lacks a name or a planner score" in str(
            exc.value.code
        )

    def test_truncated_json(self):
        good = self.committed(planner.SPEC)
        text = (REPO / planner.SPEC.baseline).read_text()
        (Path(BASELINE_DIR) / planner.SPEC.artifact).write_text(text[:100])
        with pytest.raises(SystemExit) as exc:
            check_baseline(planner.SPEC, good, smoke=True)
        assert "is unreadable" in str(exc.value.code)


class TestRegistry:
    def test_committed_baselines_validate(self):
        for spec in bench_specs():
            baseline = json.loads((REPO / spec.baseline).read_text())
            assert spec.validate(baseline) == [], spec.name
            assert baseline["deterministic"]["smoke"] is True

    def test_every_spec_runs_in_the_ci_smoke_matrix(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        job = re.search(r"\n  smoke:\n(.*?)(?=\n  \S|\Z)", ci, re.S)
        assert job, "no 'smoke' job in ci.yml"
        commands = re.findall(
            r"^\s+command:\s*(?:--duration \S+ )?(\S+)", job.group(1), re.M
        )
        names = [spec.name for spec in bench_specs()]
        assert len(set(names)) == len(names)
        for spec in bench_specs():
            assert spec.name in commands, spec.name
            assert spec.artifact in job.group(1), spec.artifact
