"""The SLO harness: scenarios, determinism, and the regression gate."""

import copy
import json

import pytest

from repro.apps.games import GAMES
from repro.core.config import GBoosterConfig
from repro.core.session import run_offload_session
from repro.devices.profiles import LG_NEXUS_5, NVIDIA_SHIELD
from repro.experiments.slo import (
    BENCH_SLO_SCHEMA,
    SPEC,
    format_bench,
    run_slo_bench,
    run_slo_faulted,
    run_slo_fleet,
    run_slo_session,
)
from repro.experiments.gate import seal, write_artifact
from repro.faults.schedule import FaultSchedule

DURATION_MS = 6_000.0


@pytest.fixture(scope="module")
def clean():
    return run_slo_session(DURATION_MS, seed=3)


@pytest.fixture(scope="module")
def faulted():
    return run_slo_faulted(DURATION_MS, seed=3)


class TestSessionScenarios:
    def test_clean_session_feeds_every_slo(self, clean):
        slos = clean["telemetry"]["slos"]
        for name in (
            "frame_p99_latency", "fps_floor",
            "switch_flap_rate", "retransmission_rate",
        ):
            assert slos[name]["good"] + slos[name]["bad"] > 0, name
        assert clean["telemetry"]["windows_evaluated"] >= 5
        assert clean["frames_presented"] > 0

    def test_fault_fires_frame_latency_alert(self, clean, faulted):
        """The injected loss burst must provably page the latency SLO."""
        slo = faulted["telemetry"]["slos"]["frame_p99_latency"]
        assert slo["bad"] > clean["telemetry"]["slos"][
            "frame_p99_latency"
        ]["bad"]
        pages = [
            a for a in faulted["telemetry"]["alerts"]
            if a["source"] == "frame_p99_latency"
            and a["severity"] == "page"
        ]
        assert pages, "loss burst did not page the frame-latency SLO"
        # The clean run's warmup breach drains back to ok; the burst
        # keeps the faulted run pinned in breach through the end.
        assert slo["state"] == "breached"
        assert clean["telemetry"]["slos"]["frame_p99_latency"][
            "state"
        ] == "ok"
        # And the burst itself pages mid-run (fps floor collapses while
        # frames stall behind retransmissions).
        assert any(
            a["severity"] == "page" and a["at_ms"] >= DURATION_MS * 0.4
            for a in faulted["telemetry"]["alerts"]
        )

    def test_fault_shifts_critical_path_to_network(self, clean, faulted):
        """Latency attribution must follow the fault into the network
        stages: the transmit/return share of dominant frames grows."""
        def net_share(summary):
            stages = summary["critical_path"]["stages"]
            return stages["transmit"]["share"] + stages["return"]["share"]

        assert faulted["critical_path"]["frames"] > 0
        assert net_share(faulted) > 2.0 * net_share(clean)
        assert net_share(faulted) > 0.05

    def test_attainment_degrades_under_fault(self, clean, faulted):
        c = clean["telemetry"]["slos"]["frame_p99_latency"]["attainment"]
        f = faulted["telemetry"]["slos"]["frame_p99_latency"]["attainment"]
        assert f < c

    def test_unarmed_session_has_no_telemetry(self, monkeypatch):
        # Closing a session detaches its observers; skip the close so the
        # simulator shows what the session armed.
        monkeypatch.setattr(
            "repro.core.session._close_session", lambda *a, **k: None
        )
        result = run_offload_session(
            GAMES["G3"], LG_NEXUS_5, [NVIDIA_SHIELD],
            config=GBoosterConfig(),      # telemetry off by default
            duration_ms=1_500.0, seed=0,
        )
        assert result.telemetry is None
        assert result.engine.sim.telemetry is None

    def test_custom_fault_schedule_respected(self):
        faults = FaultSchedule().loss_burst(
            at_ms=500.0, duration_ms=400.0, loss_probability=0.5
        )
        config = GBoosterConfig(telemetry=True, faults=faults)
        result = run_offload_session(
            GAMES["G3"], LG_NEXUS_5, [NVIDIA_SHIELD],
            config=config, duration_ms=2_000.0, seed=1,
        )
        assert result.telemetry is not None
        retx = result.telemetry.bank.matching("transport.retransmissions")
        assert sum(s.observations for s in retx) > 0


class TestFleetScenario:
    def test_overload_feeds_fleet_slos(self):
        out = run_slo_fleet(1_500.0, seed=2, n_sessions=48, n_devices=1)
        assert out["rejected"] > 0
        slos = out["telemetry"]["slos"]
        reject = slos["admission_reject_rate"]
        assert reject["bad"] == out["rejected"]
        assert reject["good"] + reject["bad"] == out["sessions"]
        # Every *started* session observes its admission wait: that is
        # the immediate admits plus queued sessions that later drained,
        # never more than the non-rejected population.
        waits = slos["admission_wait"]["good"] + slos["admission_wait"]["bad"]
        assert waits >= out["admitted"]
        assert waits <= out["sessions"] - out["rejected"]


class TestBenchArtifact:
    @pytest.fixture(scope="class")
    def bench(self):
        return run_slo_bench(seed=5, smoke=True)

    def test_schema_and_validation(self, bench):
        assert bench["schema"] == BENCH_SLO_SCHEMA
        assert SPEC.validate(bench) == []

    def test_deterministic_across_runs(self, bench):
        again = run_slo_bench(seed=5, smoke=True)
        assert json.dumps(again, sort_keys=True) == json.dumps(
            bench, sort_keys=True
        )

    def test_write_is_byte_stable(self, bench, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_artifact(str(a), bench)
        write_artifact(str(b), run_slo_bench(seed=5, smoke=True))
        assert a.read_bytes() == b.read_bytes()

    def test_format_lists_every_slo(self, bench):
        text = format_bench(bench)
        for name in (
            "frame_p99_latency", "fps_floor", "admission_reject_rate",
            "admission_wait", "switch_flap_rate", "retransmission_rate",
        ):
            assert name in text

    def test_validate_flags_missing_slo(self, bench):
        broken = copy.deepcopy(bench)
        del broken["deterministic"]["session"]["telemetry"]["slos"][
            "fps_floor"
        ]
        assert any(
            "fps_floor" in p for p in SPEC.validate(broken)
        )


class TestRegressionGate:
    @pytest.fixture(scope="class")
    def bench(self):
        return run_slo_bench(seed=5, smoke=True)

    def test_identical_artifacts_pass(self, bench):
        drift, skip = SPEC.diff(bench, bench)
        assert drift == [] and skip is None

    def test_seed_mismatch_skips_not_fails(self, bench):
        other = copy.deepcopy(bench)
        other["deterministic"]["seed"] = 99
        drift, skip = SPEC.diff(bench, other)
        assert drift == []
        assert skip is not None and "seed" in skip

    @staticmethod
    def drift_of(changed, bench):
        seal(changed["deterministic"])
        drift, skip = SPEC.diff(changed, bench)
        assert skip is None
        return drift

    def test_p99_regression_detected(self, bench):
        worse = copy.deepcopy(bench)
        fr = worse["deterministic"]["session"]["frame_response"]
        old, fr["p99"] = fr["p99"], fr["p99"] * 1.25 + 5.0
        assert (
            f"deterministic.session.frame_response.p99: {old} → {fr['p99']}"
            in self.drift_of(worse, bench)
        )

    def test_attainment_drop_detected(self, bench):
        worse = copy.deepcopy(bench)
        slo = worse["deterministic"]["session"]["telemetry"]["slos"][
            "fps_floor"
        ]
        slo["attainment"] = max(0.0, slo["attainment"] - 0.20)
        path = "deterministic.session.telemetry.slos.fps_floor.attainment"
        assert any(
            r.startswith(path + ": ") for r in self.drift_of(worse, bench)
        )

    def test_new_breach_detected(self, bench):
        worse = copy.deepcopy(bench)
        worse["deterministic"]["session"]["telemetry"]["slos"][
            "switch_flap_rate"
        ]["state"] = "breached"
        path = "deterministic.session.telemetry.slos.switch_flap_rate.state"
        assert any(
            r.startswith(path + ": ") and r.endswith('→ "breached"')
            for r in self.drift_of(worse, bench)
        )
