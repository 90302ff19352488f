"""One workload measured in-process: the closed loop, the traced pass and
the metric set.

``python -m bench.measure`` is the child process that ``python -m bench``
starts for every set-up and every measured run.  It prints ``ready`` once
set-up (interpreter start, ``import repro``, one warm-up op) is done, so
the parent can time set-up from outside, then measures and prints its
result as one JSON line.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import pstats
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import repro
import repro.codec.pipeline

from bench import RUN_SECONDS
from bench.host import CALIBRATION_ITERS, probe_s, spin_s, to_ref_s
from bench.workloads import WORKLOADS, Outcome, Workload

#: distinct op seeds in one pass.  Op cost varies by 7-14% between seeds,
#: so a pass this long keeps a run's median within about 2% of another
#: seed's.  A run repeats the pass until its time is up, and every repeat
#: must reproduce the first pass's simulated outputs.  The first pass
#: alone feeds the simulated metrics and sim_digest, so both stay fixed
#: per seed however fast the host is.
SEEDS = 40
#: passes an untraced run makes at the least, however slow the host, so
#: that every op seed has a repeat to take the fastest of
MIN_PASSES = 2
#: calibration drift across a run above which the run is flagged noisy
NOISY_DRIFT = 0.10

#: host-time layers: ``repro`` sub-packages, ``other`` for the rest of
#: ``repro``, and ``python`` for self time outside ``repro`` that no
#: ``repro`` function called
LAYERS = (
    "apps", "gles", "codec", "net", "core", "sim", "fleet", "obs", "check",
    "dispatch", "switching", "predict", "gpu", "devices", "other", "python",
)
_REPRO_DIR = str(Path(repro.__file__).parent) + "/"

Metrics = Dict[str, Tuple[float, str]]


def op_seed(seed: int, index: int) -> int:
    """The seed of op ``index`` of a run seeded ``seed`` (31 bits)."""
    digest = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass
class Sample:
    """Host timing of one op."""

    index: int
    seed: int
    #: when the op began, in seconds since the run began
    start_s: float
    op_s: float
    #: the ``gc.collect()`` that ends every op's timer
    gc_s: float
    #: mean of the host probes timed just before and just after the op
    probe_s: float
    sim_s: float
    failure: Optional[str]

    @property
    def wall_s(self) -> float:
        return self.op_s + self.gc_s

    @property
    def ref_s(self) -> float:
        return to_ref_s(self.wall_s, self.probe_s)


@dataclass
class Phase:
    """Passes over the same op seeds, run back to back under one
    configuration."""

    name: str
    seeds: int
    samples: List[Sample] = field(default_factory=list)
    #: outcomes of the first pass, None where the op raised
    window: List[Optional[Outcome]] = field(default_factory=list)

    def seed_times(self, scaled: bool = True) -> List[Tuple[float, float]]:
        """(simulated s, fastest host s) over each op seed's successful
        repeats, in wall seconds if not ``scaled``.  Bursts of host noise
        that the probes miss only ever slow an op, so the fastest repeat
        drops them; a slow input slows every repeat, so it stays."""
        by_seed: Dict[int, List[Sample]] = {}
        for s in self.samples:
            if s.failure is None:
                by_seed.setdefault(s.index % self.seeds, []).append(s)
        if not by_seed or not self.outcomes():
            raise RuntimeError(f"every {self.name} op failed")
        return [
            (
                repeats[0].sim_s,
                min(s.ref_s if scaled else s.wall_s for s in repeats),
            )
            for repeats in by_seed.values()
        ]

    def p50_s(self, scaled: bool = True) -> float:
        return statistics.median(t for _, t in self.seed_times(scaled))

    def outcomes(self) -> List[Outcome]:
        return [o for o in self.window if o is not None and o.failure is None]


@dataclass
class Run:
    main: Phase
    #: the same ops under cProfile (traced runs)
    traced: Optional[Phase] = None
    profile: Dict = field(default_factory=dict)
    lz77_in_bytes: int = 0

    @property
    def phases(self) -> List[Phase]:
        return [p for p in (self.main, self.traced) if p is not None]

    @property
    def attempted(self) -> int:
        return sum(len(p.samples) for p in self.phases)

    @property
    def failed(self) -> int:
        return sum(s.failure is not None for p in self.phases for s in p.samples)

    @property
    def digest(self) -> str:
        """sha256 over the first pass's simulated outputs, in op order."""
        h = hashlib.sha256()
        for o in self.main.window:
            h.update(("raised" if o is None else o.failure or o.fingerprint).encode())
        return h.hexdigest()


def _closed_loop(
    workload: Workload,
    seed: int,
    phase: Phase,
    run_start: float,
    seconds: float,
    passes: int,
    profile: Optional[cProfile.Profile] = None,
) -> Phase:
    """One client, no think time: run passes over the phase's op seeds
    until ``passes`` whole passes are done and ``seconds`` have passed."""
    start = time.perf_counter()
    index = 0
    probe_before = probe_s()
    while (
        index < phase.seeds * passes or time.perf_counter() - start < seconds
    ):
        seed_i = op_seed(seed, index % phase.seeds)
        outcome: Optional[Outcome] = None
        error: Optional[Exception] = None
        t0 = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            outcome = workload.op(seed_i)
        except Exception as exc:  # a failed op is counted, not fatal
            error = exc
        finally:
            if profile is not None:
                profile.disable()
        t1 = time.perf_counter()
        gc.collect()
        t2 = time.perf_counter()
        probe_after = probe_s()
        if error is not None:
            traceback.print_exception(error)
            failure: Optional[str] = f"raised {type(error).__name__}: {error}"
        else:
            failure = outcome.failure
            first = phase.window[index % phase.seeds] if index >= phase.seeds else None
            if (
                failure is None and first is not None
                and first.fingerprint != outcome.fingerprint
            ):
                failure = "simulated outputs differ from the first pass"
        if failure is not None:
            print(f"{phase.name} op {index}: {failure}", file=sys.stderr)
        phase.samples.append(Sample(
            index, seed_i, t0 - run_start, t1 - t0, t2 - t1,
            (probe_before + probe_after) / 2,
            outcome.sim_s if outcome is not None else 0.0, failure,
        ))
        if index < phase.seeds:
            phase.window.append(outcome)
        probe_before = probe_after
        index += 1
    return phase


@contextmanager
def _counting_lz77_input() -> Iterator[List[int]]:
    """Count the bytes the codec pipeline hands to ``lz77.compress``."""
    original = repro.codec.pipeline.compress
    total = [0]

    def compress(data: bytes, *args, **kwargs) -> bytes:
        total[0] += len(data)
        return original(data, *args, **kwargs)

    repro.codec.pipeline.compress = compress
    try:
        yield total
    finally:
        repro.codec.pipeline.compress = original


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float = 0.0,
    seeds: int = SEEDS,
    trace: bool = False,
) -> Run:
    """Measure ``workload``: passes over ``seeds`` op seeds for at least
    ``MIN_PASSES`` passes and ``seconds`` seconds.

    A traced run splits ``seconds`` over two phases on the same op seeds,
    untraced and then under cProfile, each of at least one pass: it gates
    nothing, and a slow host must not stretch it.
    """
    start = time.perf_counter()
    share = seconds / 2 if trace else seconds

    def loop(name: str, passes: int, profile=None) -> Phase:
        return _closed_loop(
            workload, seed, Phase(name, seeds), start, share, passes, profile
        )

    run = Run(loop("untraced", 1 if trace else MIN_PASSES))
    if trace:
        profile = cProfile.Profile()
        with _counting_lz77_input() as lz77_in:
            run.traced = loop("traced", 1, profile)
        run.profile = pstats.Stats(profile).stats
        run.lz77_in_bytes = lz77_in[0]
    return run


# -- metrics ------------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(run: Run) -> Metrics:
    """End-to-end metrics of the untraced ops, except the launcher's
    ``setup_s``.  Host times are in reference seconds (``bench.host``)."""
    per_seed = run.main.seed_times()
    host = [h for _, h in per_seed]
    # Read before the lists below are built, which are not the program's.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    outs = run.main.outcomes()
    responses = [r for o in outs for r in o.response_ms]
    return {
        "sim_s_per_host_s": (
            statistics.median(sim / h for sim, h in per_seed), "sim-s/s"
        ),
        "op_host_ms_p50": (statistics.median(host) * 1e3, "ms"),
        # The highest percentile with ten of the 40 op seeds beyond it.
        "op_host_ms_p75": (quantile(host, 0.75) * 1e3, "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
        "sim_fps_p50": (statistics.median(o.fps for o in outs), "FPS"),
        "sim_frames": (len(responses) / len(outs), "frames"),
        "sim_response_ms_mean": (sum(responses) / len(responses), "ms"),
        "sim_frame_ms_p99": (quantile(responses, 0.99), "ms"),
    }


def _layer_of(filename: str) -> str:
    if not filename.startswith(_REPRO_DIR):
        return "python"
    sub = filename[len(_REPRO_DIR):].split("/")[0]
    return sub if sub in LAYERS else "other"


def layer_self_s(stats: Dict) -> Dict[str, float]:
    """cProfile self time summed by layer; a builtin's self time is
    charged to the layer of each function that called it."""
    out = dict.fromkeys(LAYERS, 0.0)
    for (filename, _, _), (_, _, tt, _, callers) in stats.items():
        if filename != "~":
            out[_layer_of(filename)] += tt
        elif not callers:
            out["python"] += tt
        else:
            for (caller_file, _, _), edge in callers.items():
                out[_layer_of(caller_file)] += edge[2]
    return out


def _calls(stats: Dict, module: str, name: str) -> Tuple[int, float]:
    """(calls, cumulative seconds) of ``repro/<module>:<name>``."""
    path = _REPRO_DIR + module
    for (filename, _, fn), (_, nc, _, ct, _) in stats.items():
        if filename == path and fn == name:
            return nc, ct
    return 0, 0.0


def per_layer(run: Run) -> Metrics:
    """Per-layer metrics of a traced run."""
    if run.traced is None:
        raise ValueError("per-layer metrics need a traced run")
    untraced_p50 = run.main.p50_s()
    n_traced = len(run.traced.samples)
    sim_s = sum(s.sim_s for s in run.traced.samples)
    traced_probe_s = statistics.median(s.probe_s for s in run.traced.samples)
    self_s = layer_self_s(run.profile)
    total_s = sum(self_s.values())
    metrics: Metrics = {}
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_ms_per_sim_s"] = (
            to_ref_s(self_s[layer], traced_probe_s) * 1e3 / sim_s, "ms/sim-s"
        )
        metrics[f"layer.{layer}.share"] = (self_s[layer] / total_s, "ratio")

    events, _ = _calls(run.profile, "sim/kernel.py", "_step")
    frames, _ = _calls(run.profile, "codec/pipeline.py", "process_frame")
    lz77_calls, lz77_s = _calls(run.profile, "codec/lz77.py", "compress")
    lz77_s = to_ref_s(lz77_s, traced_probe_s)
    outs = run.main.outcomes()

    def mean_count(key: str) -> float:
        return sum(o.counts[key] for o in outs) / len(outs)

    lookups = sum(o.counts["cache_lookups"] for o in outs)
    uplink_frames = sum(o.uplink_frames for o in outs)
    metrics.update({
        "sim.events_per_op": (events / n_traced, "count"),
        "sim.host_us_per_event": (
            untraced_p50 * 1e6 / (events / n_traced) if events else 0.0, "us"
        ),
        "codec.frames_per_op": (frames / n_traced, "count"),
        "codec.lz77_calls_per_op": (lz77_calls / n_traced, "count"),
        "codec.lz77_in_mb_per_s": (
            run.lz77_in_bytes / 1e6 / lz77_s if lz77_s else 0.0, "MB/s"
        ),
        "codec.cache_hit_ratio": (
            sum(o.counts["cache_hits"] for o in outs) / lookups
            if lookups else 0.0,
            "ratio",
        ),
        "codec.wire_reduction": (mean_count("wire_reduction"), "ratio"),
        "net.retransmissions_per_op": (mean_count("retransmissions"), "count"),
        "fleet.migrations_per_op": (mean_count("migrations"), "count"),
        "obs.spans_per_op": (mean_count("spans"), "count"),
        "runtime.gc_ms_per_op": (
            statistics.median(
                to_ref_s(s.gc_s, s.probe_s) for s in run.main.samples
            ) * 1e3,
            "ms",
        ),
        "runtime.op_wall_ms_p50": (run.main.p50_s(scaled=False) * 1e3, "ms"),
        "trace.overhead_ratio": (run.traced.p50_s() / untraced_p50, "ratio"),
        "sim_uplink_kb_per_frame": (
            sum(o.uplink_bytes for o in outs) / 1e3 / uplink_frames
            if uplink_frames else 0.0,
            "KB",
        ),
        "sim_power_w": (sum(o.power_w for o in outs) / len(outs), "W"),
    })
    return metrics


def chrome_trace(run: Run) -> Dict:
    """Per-op spans, each with a child ``gc`` span, one track per phase."""
    events: List[Dict] = []
    for tid, phase in enumerate(run.phases):
        events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": phase.name},
        })
        for s in phase.samples:
            args = {"op": s.index, "seed": s.seed}
            if s.failure is not None:
                args["failure"] = s.failure
            events.append({
                "name": "op", "cat": phase.name, "ph": "X", "pid": 1,
                "tid": tid, "ts": s.start_s * 1e6, "dur": s.wall_s * 1e6,
                "args": args,
            })
            events.append({
                "name": "gc", "cat": phase.name, "ph": "X", "pid": 1,
                "tid": tid, "ts": (s.start_s + s.op_s) * 1e6,
                "dur": s.gc_s * 1e6, "args": {"op": s.index},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- child process ----------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench.measure",
        description="Set up and measure one workload (started by python -m bench).",
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="exit once set-up is done",
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    workload.op(op_seed(args.seed, -1))
    gc.collect()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    before = spin_s(CALIBRATION_ITERS) * 1e3
    run = run_workload(
        workload, args.seed, seconds=RUN_SECONDS, trace=bool(args.trace)
    )
    after = spin_s(CALIBRATION_ITERS) * 1e3
    metrics = per_layer(run) if args.trace else end_to_end(run)
    if args.out is not None:
        (args.out / f"{workload.name}.trace.json").write_text(
            json.dumps(chrome_trace(run))
        )
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "context": {
            "ops": len(run.main.samples),
            "seeds": run.main.seeds,
            "op_host_ms_p50": run.main.p50_s() * 1e3,
            # The unscaled readings behind the host-time metrics.
            "op_wall_ms_p50": run.main.p50_s(scaled=False) * 1e3,
            "probe_ms_p50": statistics.median(
                s.probe_s for s in run.main.samples
            ) * 1e3,
            "ops_failed_ratio": run.failed / run.attempted,
            "sim_digest": run.digest,
            "host.calib_ms_before": before,
            "host.calib_ms_after": after,
            "noisy": abs(after - before) > NOISY_DRIFT * before,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
