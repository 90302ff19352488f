"""The repository's benchmark: simulator host time on four workloads.

    python3 -m bench --workload NAME | --all [--seed S] [--trace [0|1]]
                     [--out DIR]

Each workload runs in fresh single-threaded child processes
(``python -m bench.measure``), started one at a time.  An untraced run
first starts ``SETUPS`` children that only set up, each between two
reference set-ups (``python -m bench.host``), then one that sets up and
measures; ``setup_s`` is the median of the set-up times seen from here,
scaled by the reference set-ups next to them.  Every metric is printed by name with its unit, and the last line
of standard output is the result as one JSON object.  ``--out DIR``
also writes each workload's full result and its per-op Chrome trace
there.  With ``--all`` it also prints ``obs.overhead_ratio``, the
observation overhead: ``op_host_ms_p50`` of ``observed_g3`` over that of
``session_g3``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from bench import RUN_SECONDS
from bench.host import REF_PROBE_S, REF_SETUP_S

ROOT = Path(__file__).resolve().parent.parent
#: the names of ``bench.workloads.WORKLOADS``, listed here so that this
#: process never imports ``repro``
WORKLOADS = ("session_g3", "wire_g1_multi", "observed_g3", "fleet_128x16")
SETUPS = 3
#: every child of one workload has ended this long after the first started
DEADLINE_S = 170.0
#: keys of the JSON result line, in order
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


class ChildFailed(RuntimeError):
    """A child process exited without a result."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # One thread, and the same dict layout in every run.
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _spawn(module: str, args: List[str], deadline: float) -> Tuple[float, str]:
    """Run ``python -m module args`` to its end; return the seconds until
    it printed ``ready``, and what it printed after."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-m", module, *args],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
    ) as child:
        killer = threading.Timer(max(0.0, deadline - start), child.kill)
        killer.start()
        try:
            ready = child.stdout.readline()
            setup_s = time.perf_counter() - start
            printed = child.stdout.read()
        except BaseException:
            child.kill()
            raise
        finally:
            killer.cancel()
    if ready != "ready\n" or child.returncode != 0:
        raise ChildFailed(
            f"{module} {' '.join(args)} exited with code {child.returncode}"
        )
    return setup_s, printed


def measure(workload: str, seed: int, trace: bool, out: Optional[Path]) -> Dict:
    deadline = time.perf_counter() + DEADLINE_S
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    if out is not None:
        args += ["--out", str(out)]
    setups: List[float] = []
    refs: List[float] = []
    if not trace:
        refs.append(_spawn("bench.host", [], deadline)[0])
        for _ in range(SETUPS):
            setups.append(
                _spawn("bench.measure", [*args, "--setup-only"], deadline)[0]
            )
            refs.append(_spawn("bench.host", [], deadline)[0])
    result = json.loads(_spawn("bench.measure", args, deadline)[1].splitlines()[-1])
    if not trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(
                wall * REF_SETUP_S * 2 / (before + after)
                for wall, before, after in zip(setups, refs, refs[1:])
            ),
            "unit": "s",
        }
        result["context"]["setup_wall_s"] = statistics.median(setups)
        result["context"]["reference_setup_s"] = statistics.median(refs)
    return result


def report(workload: str, result: Dict) -> None:
    ctx = result["context"]
    print(
        f"{workload}: {result['attempted']} ops attempted, "
        f"{result['failed']} failed (ops_failed_ratio "
        f"{ctx['ops_failed_ratio']:.4f}), correct={result['correct']}"
    )
    for name, metric in sorted(result["metrics"].items()):
        print(f"  {name:<34} {metric['value']:>14.4f} {metric['unit']}")
    print(
        f"  sim_digest {ctx['sim_digest']} over the first pass; "
        f"{ctx['ops']} untraced ops over {ctx['seeds']} op seeds"
    )
    print(
        f"  host.calib_ms_before {ctx['host.calib_ms_before']:.1f} ms, "
        f"host.calib_ms_after {ctx['host.calib_ms_after']:.1f} ms"
        + (" -- noisy: the host changed speed during the run" if ctx["noisy"] else "")
    )
    print(
        f"  unscaled: op_wall_ms_p50 {ctx['op_wall_ms_p50']:.1f} ms; probe p50 "
        f"{ctx['probe_ms_p50']:.3f} ms against {REF_PROBE_S * 1e3:.3f} ms "
        f"on the reference host"
    )
    if "setup_wall_s" in ctx:
        print(
            f"  unscaled: setup_wall_s {ctx['setup_wall_s']:.3f} s; reference "
            f"set-up p50 {ctx['reference_setup_s']:.3f} s against "
            f"{REF_SETUP_S:.3f} s on the reference host"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=RUN_SECONDS, choices=(RUN_SECONDS,),
        help="the run length, which is fixed; accepted so that a runner may "
        "state it",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics from a traced run instead",
    )
    parser.add_argument("--out", type=Path, help="directory for result files")
    args = parser.parse_args(argv)
    out = args.out.resolve() if args.out is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    results = {}
    for workload in WORKLOADS if args.all else (args.workload,):
        try:
            result = measure(workload, args.seed, bool(args.trace), out)
        except ChildFailed as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        report(workload, result)
        if out is not None:
            (out / f"{workload}.json").write_text(json.dumps(result, indent=2))
        results[workload] = result
    if args.all:
        observed, plain = (
            results[w]["context"]["op_host_ms_p50"]
            for w in ("observed_g3", "session_g3")
        )
        print(f"obs.overhead_ratio {observed / plain:.4f} (observed_g3 over "
              f"session_g3, op_host_ms_p50)")
    print(json.dumps(
        {w: {k: r[k] for k in RESULT_KEYS} for w, r in results.items()}
        if args.all else {k: results[args.workload][k] for k in RESULT_KEYS}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
