"""The one gate behind the seeded ``BENCH_*`` experiments.

Every gated experiment (``slo``, ``replay``, ``capacity``, ``planner``,
``postmortem``, ``profile``) returns an artifact of the same shape::

    {"schema": ..., "deterministic": {"seed", "smoke", ..., "digest"}}

where everything under ``deterministic`` is simulated time, so it is a
pure function of the seed and carries a sha256 digest over itself.  A
:class:`BenchSpec` holds what differs between experiments — how to run
one, its acceptance checks, its tolerance regressions, its report and
its side files — and :func:`gate` runs the sequence they share:

1. run, validate, write the artifact and side files, print the report;
2. under ``--smoke``, rerun serially and demand the whole run output
   byte-identical (with ``--workers > 1`` this is the check that a
   parallel run equals a serial one);
3. diff against the committed baseline ``benchmarks/baselines/<artifact>``.
   A baseline that cannot be read or fails the spec's own validation
   fails the gate, and so does a missing one under ``--smoke``.  A seed
   or scale mismatch skips the diff with its reason.  Otherwise a
   tolerance regression or any digest drift fails it.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: where the committed baselines live, one ``<artifact>`` file each
BASELINE_DIR = "benchmarks/baselines"

#: ``(flag, default path, writer(path, run_output))`` for a side file
SideFile = Tuple[str, str, Callable[[str, Dict[str, Any]], None]]


def _no_regressions(cur: Dict[str, Any], base: Dict[str, Any]) -> List[str]:
    return []


@dataclass(frozen=True)
class BenchSpec:
    """One gated experiment.

    ``run(seed, smoke, workers)`` returns the artifact, plus any extra
    top-level keys its side-file writers read (a Chrome trace); only
    ``schema`` and ``deterministic`` are written to ``artifact``.
    ``checks`` and ``regressions`` see ``deterministic`` sections:
    ``checks(det)`` lists acceptance problems, ``regressions(cur, base)``
    lists tolerance breaches against a comparable baseline.
    """

    name: str
    schema: str
    artifact: str
    run: Callable[[int, bool, int], Dict[str, Any]]
    checks: Callable[[Dict[str, Any]], List[str]]
    format: Callable[[Dict[str, Any]], str]
    regressions: Callable[
        [Dict[str, Any], Dict[str, Any]], List[str]
    ] = _no_regressions
    side_files: Tuple[SideFile, ...] = ()
    #: whether the subcommand takes ``--workers``
    parallel: bool = True
    problem_label: str = "acceptance gate failed"
    regression_label: str = "regression"

    @property
    def baseline(self) -> str:
        return f"{BASELINE_DIR}/{self.artifact}"

    def validate(self, bench: Any) -> List[str]:
        """Schema + acceptance problems of an artifact; empty == valid."""
        if not isinstance(bench, dict):
            return [f"top level must be an object, got {type(bench).__name__}"]
        problems: List[str] = []
        if bench.get("schema") != self.schema:
            problems.append(f"'schema' must be {self.schema!r}")
        det = bench.get("deterministic")
        if not isinstance(det, dict):
            return problems + ["missing 'deterministic' section"]
        if not isinstance(det.get("digest"), str):
            problems.append("missing 'deterministic.digest'")
        return problems + self.checks(det)

    def diff(
        self, current: Dict[str, Any], baseline: Dict[str, Any]
    ) -> Tuple[List[str], Optional[str]]:
        """Compare an artifact against a baseline.

        Returns ``(regressions, skip_reason)``; a non-``None`` skip
        reason means the artifacts are not comparable (schema, seed or
        scale mismatch) and the gate should be skipped, not failed.
        """
        cur = current.get("deterministic", {})
        base = baseline.get("deterministic", {})
        if baseline.get("schema") != current.get("schema"):
            return [], "baseline schema differs — regenerate the baseline"
        if (cur.get("seed"), cur.get("smoke")) != (
            base.get("seed"), base.get("smoke")
        ):
            return [], (
                f"baseline is seed={base.get('seed')} "
                f"smoke={base.get('smoke')}, run is seed={cur.get('seed')} "
                f"smoke={cur.get('smoke')} — not comparable"
            )
        regressions = self.regressions(cur, base)
        if cur.get("digest") != base.get("digest"):
            regressions.append(
                "artifact digest drifted from the committed baseline: "
                f"{str(base.get('digest'))[:16]} -> "
                f"{str(cur.get('digest'))[:16]}"
            )
            regressions += [
                f"section {section!r} differs from baseline"
                for section in sorted(set(cur) | set(base))
                if section != "digest"
                and _canonical(cur.get(section))
                != _canonical(base.get(section))
            ]
            regressions.append(
                "if the change is intended, regenerate the baseline with "
                f"`python -m repro {self.name} --smoke --out "
                f"{self.baseline}` and record the old -> new digest"
            )
        return regressions, None


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True)


def write_json(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_artifact(path: str, bench: Dict[str, Any]) -> None:
    """Write the digest-gated artifact: ``schema`` + ``deterministic``."""
    write_json(
        path, {"schema": bench["schema"], "deterministic": bench["deterministic"]}
    )


def write_chrome(path: str, bench: Dict[str, Any]) -> None:
    """Side-file writer for the Chrome trace a run carries as ``chrome``."""
    from repro.obs.export import save_chrome_trace

    save_chrome_trace(path, bench["chrome"])


def _fail(head: str, lines: List[str]) -> None:
    raise SystemExit(head + ":\n  " + "\n  ".join(lines))


def check_baseline(spec: BenchSpec, bench: Dict[str, Any], smoke: bool) -> None:
    """Step 3 of :func:`gate`: diff ``bench`` against the spec's baseline."""
    path = spec.baseline
    regenerate = f"`python -m repro {spec.name} --smoke --out {path}`"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
    except FileNotFoundError:
        if smoke:
            raise SystemExit(
                f"{spec.name}: no baseline at {path} — generate it with "
                f"{regenerate}"
            )
        print(f"no baseline at {path} — diff skipped")
        return
    except (OSError, ValueError) as exc:
        raise SystemExit(
            f"{spec.name}: baseline {path} is unreadable ({exc}) — "
            f"regenerate it with {regenerate}"
        )
    problems = spec.validate(baseline)
    if problems:
        _fail(f"{spec.name}: baseline {path} is invalid", problems)
    regressions, skip = spec.diff(bench, baseline)
    if skip is not None:
        print(f"baseline diff skipped: {skip}")
    elif regressions:
        _fail(f"{spec.name}: {spec.regression_label} vs {path}", regressions)
    else:
        print(f"baseline diff vs {path}: ok")


def gate(spec: BenchSpec, args: argparse.Namespace) -> None:
    """Run one experiment through the gate; ``SystemExit`` on failure."""
    bench = spec.run(args.seed, args.smoke, args.workers)
    problems = spec.validate(bench)
    write_artifact(args.out, bench)
    written = [args.out]
    for flag, _default, writer in spec.side_files:
        path = getattr(args, flag.lstrip("-").replace("-", "_"))
        writer(path, bench)
        written.append(path)
    print(spec.format(bench))
    print("wrote " + ", ".join(written))
    if problems:
        _fail(f"{spec.name}: {spec.problem_label}", problems)
    if args.smoke:
        again = spec.run(args.seed, True, 1)
        if _canonical(again) != _canonical(bench):
            raise SystemExit(f"{spec.name} smoke: same seed, different artifact")
    check_baseline(spec, bench, args.smoke)
    if args.smoke:
        print(f"{spec.name} smoke: ok")


def bench_specs() -> List[BenchSpec]:
    """Every gated experiment, in CLI order.

    The imports are deferred: each experiment module pulls in the whole
    simulator, and they import this module for :class:`BenchSpec`.
    """
    from repro.experiments import (
        capacity,
        planner,
        postmortem,
        profiling,
        replay,
        slo,
    )

    return [
        profiling.SPEC,
        slo.SPEC,
        replay.SPEC,
        capacity.SPEC,
        planner.SPEC,
        postmortem.SPEC,
    ]
