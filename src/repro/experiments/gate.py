"""The one gate behind the seeded ``BENCH_*`` experiments.

Every gated experiment (``slo``, ``replay``, ``capacity``, ``planner``,
``postmortem``, ``profile``) returns an artifact of the same shape::

    {"schema": ..., "deterministic": {"seed", "smoke", ..., "digest"}}

where everything under ``deterministic`` is simulated time, so it is a
pure function of the seed; :func:`seal` stores a sha256 digest of it
under ``digest``.  A :class:`BenchSpec` holds what differs between
experiments — how to run one, its acceptance checks, its report and its
side files — and :func:`gate` runs the sequence they share:

1. run, validate, write the artifact and side files, print the report;
2. under ``--smoke``, rerun serially and demand the whole run output
   byte-identical (with ``--workers > 1`` this is the check that a
   parallel run equals a serial one);
3. diff against the committed baseline ``benchmarks/baselines/<artifact>``.
   A baseline that cannot be read or fails the spec's own validation
   (including a digest that no longer matches its content) fails the
   gate, and so does a missing one under ``--smoke``.  A seed or scale
   mismatch skips the diff with its reason.  Otherwise any digest drift
   fails it, and the failure names each value that moved.

A seeded artifact is right only when it matches its baseline byte for
byte, so the gate has no tolerances: those belong where a number is
compared against the paper, not against the last run.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.digest import canonical_json, digest_of

#: where the committed baselines live, one ``<artifact>`` file each
BASELINE_DIR = "benchmarks/baselines"

#: a drift message names at most this many moved values
MAX_MOVED = 30

#: ``(flag, default path, writer(path, run_output))`` for a side file
SideFile = Tuple[str, str, Callable[[str, Dict[str, Any]], None]]


def _content_digest(det: Dict[str, Any]) -> str:
    return digest_of({k: v for k, v in det.items() if k != "digest"})


def seal(det: Dict[str, Any]) -> Dict[str, Any]:
    """Store the digest of everything else in ``det`` under ``digest``."""
    det["digest"] = _content_digest(det)
    return det


@dataclass(frozen=True)
class BenchSpec:
    """One gated experiment.

    ``run(seed, smoke, workers)`` returns the artifact, plus any extra
    top-level keys its side-file writers read (a Chrome trace); only
    ``schema`` and ``deterministic`` are written to ``artifact``.
    ``checks(det)`` lists the acceptance problems of a ``deterministic``
    section.
    """

    name: str
    schema: str
    artifact: str
    run: Callable[[int, bool, int], Dict[str, Any]]
    checks: Callable[[Dict[str, Any]], List[str]]
    format: Callable[[Dict[str, Any]], str]
    side_files: Tuple[SideFile, ...] = ()
    #: whether the subcommand takes ``--workers``
    parallel: bool = True

    @property
    def baseline(self) -> str:
        return f"{BASELINE_DIR}/{self.artifact}"

    def validate(self, bench: Any) -> List[str]:
        """Schema, seal and acceptance problems; empty == valid."""
        if not isinstance(bench, dict):
            return [f"top level must be an object, got {type(bench).__name__}"]
        problems: List[str] = []
        if bench.get("schema") != self.schema:
            problems.append(f"'schema' must be {self.schema!r}")
        det = bench.get("deterministic")
        if not isinstance(det, dict):
            return problems + ["missing 'deterministic' section"]
        digest = det.get("digest")
        if not isinstance(digest, str):
            problems.append("missing 'deterministic.digest'")
        elif digest != _content_digest(det):
            problems.append(
                "'deterministic.digest' does not match its content "
                "(edited without regenerating?)"
            )
        return problems + self.checks(det)

    def diff(
        self, current: Dict[str, Any], baseline: Dict[str, Any]
    ) -> Tuple[List[str], Optional[str]]:
        """Compare an artifact against a baseline by digest.

        Returns ``(drift, skip_reason)``.  ``drift`` is empty when the
        digests match; otherwise it names both digests, each value that
        moved as ``deterministic.<path>: old → new`` (at most
        :data:`MAX_MOVED`) and how to regenerate the baseline.  A
        non-``None`` skip reason means a seed or scale mismatch: the
        artifacts are not comparable, so the gate is skipped, not failed.
        """
        cur = current.get("deterministic", {})
        base = baseline.get("deterministic", {})
        if (cur.get("seed"), cur.get("smoke")) != (
            base.get("seed"), base.get("smoke")
        ):
            return [], (
                f"baseline is seed={base.get('seed')} "
                f"smoke={base.get('smoke')}, run is seed={cur.get('seed')} "
                f"smoke={cur.get('smoke')} — not comparable"
            )
        if cur.get("digest") == base.get("digest"):
            return [], None
        moved = _moved_values(base, cur)
        drift = [
            "artifact digest drifted from the committed baseline: "
            f"{str(base.get('digest'))[:16]} → "
            f"{str(cur.get('digest'))[:16]}"
        ]
        drift += moved[:MAX_MOVED]
        if len(moved) > MAX_MOVED:
            drift.append(f"… and {len(moved) - MAX_MOVED} more")
        drift.append(
            "if the change is intended, regenerate the baseline with "
            f"`python -m repro {self.name} --smoke --out "
            f"{self.baseline}` and record the old -> new digest"
        )
        return drift, None


def _leaves(value: Any, path: str, out: Dict[str, Any]) -> Dict[str, Any]:
    """Flatten ``value`` into ``out`` as ``{path: leaf}``.

    An empty container is a leaf of its own, so a section that empties
    still shows as moved.
    """
    if isinstance(value, dict) and value:
        for key in sorted(value):
            _leaves(value[key], f"{path}.{key}", out)
    elif isinstance(value, (list, tuple)) and value:
        for i, item in enumerate(value):
            _leaves(item, f"{path}[{i}]", out)
    else:
        out[path] = value
    return out


def _moved_values(base: Dict[str, Any], cur: Dict[str, Any]) -> List[str]:
    """``deterministic.<path>: old → new`` for each leaf that differs.

    Leaves only one side has show ``(absent)`` on the other; the
    digest itself is left out.
    """
    old = _leaves(base, "deterministic", {})
    new = _leaves(cur, "deterministic", {})
    for leaves in (old, new):
        leaves.pop("deterministic.digest", None)

    def shown(leaves: Dict[str, Any], path: str) -> str:
        return canonical_json(leaves[path]) if path in leaves else "(absent)"

    lines = []
    for path in [*old, *(p for p in new if p not in old)]:
        before, after = shown(old, path), shown(new, path)
        if before != after:
            lines.append(f"{path}: {before} → {after}")
    return lines


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
    drift, skip = spec.diff(bench, baseline)
    if skip is not None:
        print(f"baseline diff skipped: {skip}")
    elif drift:
        _fail(f"{spec.name}: drift from {path}", drift)
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
        _fail(f"{spec.name}: acceptance gate failed", problems)
    if args.smoke:
        again = spec.run(args.seed, True, 1)
        if canonical_json(again) != canonical_json(bench):
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
