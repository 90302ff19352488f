"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``quickstart``      — local vs GBooster for one game (default G1/Nexus 5)
* ``fig5``            — the acceleration matrix
* ``fig6``            — the energy matrix
* ``fig7``            — the multi-device sweep
* ``fig1``            — the thermal trace
* ``prediction``      — ARMA vs ARMAX rates + AIC selection
* ``multiuser``       — §VIII FCFS vs priority sharing
* ``adaptive``        — discovery + cloud-fallback demo
* ``chaos``           — fault-injection sweep (loss bursts, outages, crashes)
* ``fleet``           — fleet-scaling sweep (sessions over a device pool)
* ``fuzz``            — seeded property fuzzing over codecs, caches,
                        transports, chaos sessions and fleet arrivals;
                        shrinks failures to minimal reproductions

Each prints the same rows the corresponding benchmark asserts on.

The gated experiments — ``profile`` (pipeline-stage percentiles),
``slo`` (burn-rate SLO scenarios), ``replay`` (record once, replay
many), ``capacity`` (SLO-attainment frontier), ``planner`` (plan chooser
vs static policies) and ``postmortem`` (causal flight bundle) — each
write a ``BENCH_*.json`` artifact and all go through one gate
(:mod:`repro.experiments.gate`): with ``--smoke`` they rerun for
byte-identity and diff against ``benchmarks/baselines/``.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial


def _cmd_quickstart(args: argparse.Namespace) -> None:
    from repro import run_local_session, run_offload_session
    from repro.apps.games import GAMES
    from repro.devices.profiles import USER_DEVICES

    app = GAMES[args.game]
    device = USER_DEVICES[args.device]
    local = run_local_session(app, device, duration_ms=args.duration * 1000.0)
    boosted = run_offload_session(app, device,
                                  duration_ms=args.duration * 1000.0)
    print(f"{app.name} on {device.name} ({args.duration:.0f}s)")
    print(f"  local   : {local.fps}")
    print(f"  gbooster: {boosted.fps}")
    print(f"  energy  : {boosted.energy.mean_power_w:.2f} W vs "
          f"{local.energy.mean_power_w:.2f} W "
          f"({boosted.energy.mean_power_w / local.energy.mean_power_w:.0%})")


def _cmd_fig5(args: argparse.Namespace) -> None:
    from repro.experiments.acceleration import format_rows, run_figure5

    rows = run_figure5(duration_ms=args.duration * 1000.0)
    print(format_rows(rows))


def _cmd_fig6(args: argparse.Namespace) -> None:
    from repro.devices.profiles import LG_NEXUS_5
    from repro.experiments.energy import format_rows, run_figure6

    rows = run_figure6(duration_ms=args.duration * 1000.0,
                       devices=[LG_NEXUS_5])
    print(format_rows(rows))


def _cmd_fig7(args: argparse.Namespace) -> None:
    from repro.experiments.multidevice import format_points, run_figure7

    points = run_figure7(duration_ms=args.duration * 1000.0)
    print(format_points(points))


def _cmd_fig1(args: argparse.Namespace) -> None:
    from repro.experiments.thermal import run_figure1

    result = run_figure1()
    for t, freq, temp in result.samples[::120]:
        print(f"t={t/60.0:5.1f} min  freq={freq:6.0f} MHz  temp={temp:5.1f} C")
    print(f"throttled at {result.throttle_time_s / 60.0:.1f} min "
          "(paper: ~10 min)")


def _cmd_prediction(args: argparse.Namespace) -> None:
    from repro.experiments.prediction import (
        ATTRIBUTE_NAMES,
        collect_traffic_trace,
        compare_arma_armax,
        format_comparison,
        run_aic_selection,
    )

    trace = collect_traffic_trace(duration_ms=args.duration * 1000.0)
    print(format_comparison(compare_arma_armax(trace)))
    ranking = run_aic_selection(trace)
    best = ranking[0][0]
    print("AIC winner:", [ATTRIBUTE_NAMES[i] for i in best])


def _cmd_multiuser(args: argparse.Namespace) -> None:
    from repro.apps.games import CANDY_CRUSH, MODERN_COMBAT
    from repro.core.multiuser import run_multiuser_experiment

    results = run_multiuser_experiment(
        MODERN_COMBAT, CANDY_CRUSH, duration_ms=args.duration * 1000.0
    )
    for policy, result in results.items():
        for user in result.users:
            print(f"{policy:9} {user.app.short_name} "
                  f"{user.fps.median_fps:5.1f} FPS "
                  f"{user.mean_response_ms:6.1f} ms")


def _cmd_adaptive(args: argparse.Namespace) -> None:
    from repro.apps.games import GTA_SAN_ANDREAS
    from repro.core.adaptive import run_adaptive_session
    from repro.devices.profiles import NVIDIA_SHIELD

    for label, ambient, internet in (
        ("devices nearby", [NVIDIA_SHIELD], True),
        ("empty LAN, Internet up", [], True),
        ("fully offline", [], False),
    ):
        outcome = run_adaptive_session(
            GTA_SAN_ANDREAS, ambient_devices=ambient,
            internet_available=internet,
            duration_ms=args.duration * 1000.0,
        )
        print(f"{label:24} -> {outcome.mode:9} "
              f"{outcome.median_fps:5.1f} FPS  "
              f"{outcome.response_time_ms:6.1f} ms")


def _cmd_chaos(args: argparse.Namespace) -> None:
    from repro.experiments.chaos import format_points, run_chaos_sweep

    points = run_chaos_sweep(
        loss_levels=args.loss,
        outage_levels_ms=[s * 1000.0 for s in args.outage],
        crash=not args.no_crash,
        duration_ms=args.duration * 1000.0,
    )
    print(format_points(points))
    if any(not p.survived for p in points):
        raise SystemExit("chaos sweep lost frames — robustness regression")


def _cmd_fleet(args: argparse.Namespace) -> None:
    from repro.experiments.fleet import (
        format_points,
        run_fleet_point,
        run_fleet_sweep,
    )

    if args.workers is not None:
        _cmd_fleet_sharded(args)
        return
    if args.smoke:
        # CI gate: one 64-session point on 8 devices, run twice.  Asserts
        # the subsystem's headline invariants rather than printing a table.
        point, _report = run_fleet_point(
            n_sessions=64, n_devices=8, duration_ms=10_000.0,
            seed=args.seed, crash=not args.no_crash,
        )
        again, _ = run_fleet_point(
            n_sessions=64, n_devices=8, duration_ms=10_000.0,
            seed=args.seed, crash=not args.no_crash,
        )
        print(format_points([point]))
        if point.digest != again.digest:
            raise SystemExit("fleet smoke: same seed, different report")
        if point.peak_concurrency < 64:
            raise SystemExit(
                f"fleet smoke: only {point.peak_concurrency} concurrent "
                "sessions (need 64)"
            )
        if not point.zero_loss:
            raise SystemExit(
                f"fleet smoke: {point.frames_lost} frames lost"
            )
        if not args.no_crash and point.crash_migrations < 1:
            raise SystemExit("fleet smoke: crash caused no migrations")
        action = point.tier_response_ms.get("action", 0.0)
        tolerant = point.tier_response_ms.get("tolerant", 0.0)
        if action >= tolerant:
            raise SystemExit(
                f"fleet smoke: action tier ({action:.1f} ms) not faster "
                f"than tolerant tier ({tolerant:.1f} ms)"
            )
        print("fleet smoke: ok")
        return
    points = run_fleet_sweep(
        session_counts=args.sessions,
        n_devices=args.devices,
        duration_ms=args.duration * 1000.0,
        seed=args.seed,
        crash=not args.no_crash,
    )
    print(format_points(points))
    if any(not p.zero_loss for p in points):
        raise SystemExit("fleet sweep lost frames — migration regression")


def _cmd_fleet_sharded(args: argparse.Namespace) -> None:
    """``fleet --workers N``: the sharded kernel path.

    The determinism contract asserted here is the one ``repro.sim.shard``
    guarantees: at fixed ``(seed, shards)``, the merged report's simulated
    ``digest`` and its observation ``obs_digest`` are byte-identical for
    every worker count — parallelism is transport, not semantics.
    """
    from repro.experiments.fleet_shard import (
        format_sharded_points,
        run_sharded_fleet_point,
        run_sharded_fleet_sweep,
    )

    if args.smoke:
        # CI gate: one 64-session point at the
        # requested worker count, diffed byte-for-byte against the same
        # point pushed through a single worker.
        point, report = run_sharded_fleet_point(
            n_sessions=64, n_devices=8, duration_ms=10_000.0,
            seed=args.seed, shards=args.shards, workers=args.workers,
            crash=not args.no_crash, window_ms=args.window * 1000.0,
        )
        serial, serial_report = run_sharded_fleet_point(
            n_sessions=64, n_devices=8, duration_ms=10_000.0,
            seed=args.seed, shards=args.shards, workers=1,
            crash=not args.no_crash, window_ms=args.window * 1000.0,
        )
        print(format_sharded_points([point]))
        for key in ("digest", "obs_digest"):
            ours, theirs = getattr(point, key), getattr(serial, key)
            if ours != theirs:
                raise SystemExit(
                    f"fleet parallel smoke: workers={args.workers} {key} "
                    f"{ours[:16]} != workers=1 {key} {theirs[:16]}"
                )
        if report["session_digests"] != serial_report["session_digests"]:
            raise SystemExit(
                "fleet parallel smoke: per-session frame digests differ "
                "across worker counts"
            )
        if point.finished < 64:
            raise SystemExit(
                f"fleet parallel smoke: only {point.finished} sessions "
                "finished (need 64)"
            )
        if not point.zero_loss:
            raise SystemExit(
                f"fleet parallel smoke: {point.frames_lost} frames lost"
            )
        if not args.no_crash and point.crash_migrations < 1:
            raise SystemExit(
                "fleet parallel smoke: crash caused no migrations"
            )
        print(
            f"fleet parallel smoke: ok "
            f"(shards={args.shards}, workers={args.workers}, "
            f"digest {point.digest[:16]}, "
            f"obs_digest {point.obs_digest[:16]})"
        )
        return
    points = run_sharded_fleet_sweep(
        session_counts=args.sessions,
        n_devices=args.devices,
        duration_ms=args.duration * 1000.0,
        seed=args.seed,
        shards=args.shards,
        workers=args.workers,
        crash=not args.no_crash,
        window_ms=args.window * 1000.0,
    )
    print(format_sharded_points(points))
    if any(not p.zero_loss for p in points):
        raise SystemExit("fleet sweep lost frames — migration regression")
    if any(p.invariant_violations for p in points):
        raise SystemExit("fleet sweep tripped runtime invariants")


def _cmd_fuzz(args: argparse.Namespace) -> None:
    from repro.check.fuzz import format_summary, run_fuzz

    summary = run_fuzz(
        smoke=args.smoke, seed=args.seed, rounds=args.rounds,
        corpus_dir=args.corpus,
    )
    print(format_summary(summary))
    if summary["total_failures"]:
        raise SystemExit(
            f"fuzz: {summary['total_failures']} properties falsified"
        )
    if args.smoke:
        # CI gate: the whole suite must be deterministic under the seed.
        again = run_fuzz(smoke=True, seed=args.seed, rounds=args.rounds)
        if again["digest"] != summary["digest"]:
            raise SystemExit("fuzz smoke: same seed, different digest")
        print("fuzz smoke: ok")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="GBooster reproduction experiment runner",
    )
    parser.add_argument(
        "--duration", type=float, default=60.0,
        help="simulated session length in seconds (default 60)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "quickstart": _cmd_quickstart,
        "fig5": _cmd_fig5,
        "fig6": _cmd_fig6,
        "fig7": _cmd_fig7,
        "fig1": _cmd_fig1,
        "prediction": _cmd_prediction,
        "multiuser": _cmd_multiuser,
        "adaptive": _cmd_adaptive,
        "chaos": _cmd_chaos,
        "fleet": _cmd_fleet,
        "fuzz": _cmd_fuzz,
    }
    for name in commands:
        p = sub.add_parser(name)
        if name == "quickstart":
            p.add_argument("--game", default="G1",
                           choices=["G1", "G2", "G3", "G4", "G5", "G6"])
            p.add_argument("--device", default="LG Nexus 5")
        if name == "chaos":
            p.add_argument("--loss", type=float, nargs="+",
                           default=[0.0, 0.3],
                           help="loss-burst probabilities to sweep")
            p.add_argument("--outage", type=float, nargs="+",
                           default=[0.0, 2.0],
                           help="hard-outage durations (seconds) to sweep")
            p.add_argument("--no-crash", action="store_true",
                           help="skip the mid-session node crash")
        if name == "fleet":
            p.add_argument("--sessions", type=int, nargs="+",
                           default=[16, 32, 64, 96],
                           help="session counts to sweep")
            p.add_argument("--devices", type=int, default=8,
                           help="service devices in the pool")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--no-crash", action="store_true",
                           help="skip the mid-run device crash")
            p.add_argument("--smoke", action="store_true",
                           help="CI gate: assert fleet invariants on one "
                                "64-session point")
            p.add_argument("--workers", type=int, default=None,
                           help="fan shards across N worker processes "
                                "(enables the sharded kernel; digests are "
                                "byte-identical for any N at fixed "
                                "--shards)")
            p.add_argument("--shards", type=int, default=4,
                           help="kernel shards for --workers runs "
                                "(default 4; 1 reproduces the legacy "
                                "single-kernel digest)")
            p.add_argument("--window", type=float, default=1.0,
                           help="barrier window in simulated seconds for "
                                "--workers runs (default 1.0)")
        if name == "fuzz":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--rounds", type=int, default=1,
                           help="case-budget multiplier per property")
            p.add_argument("--corpus", default=None,
                           help="directory to write shrunk failing cases "
                                "into (regression fixtures)")
            p.add_argument("--smoke", action="store_true",
                           help="CI gate: reduced case budget + same-seed "
                                "digest check")
    from repro.experiments.gate import bench_specs, gate

    for spec in bench_specs():
        p = sub.add_parser(spec.name)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=spec.artifact,
                       help="benchmark artifact path")
        for flag, default, _writer in spec.side_files:
            p.add_argument(flag, default=default, help="side artifact path")
        p.add_argument("--smoke", action="store_true",
                       help="CI gate: short run + acceptance gates + "
                            "same-seed byte-identity + diff against "
                            f"{spec.baseline}")
        p.set_defaults(workers=1)
        if spec.parallel:
            p.add_argument("--workers", type=int, default=1,
                           help="fan independent jobs across N processes "
                                "(artifact stays byte-identical for any N)")
        commands[spec.name] = partial(gate, spec)
    args = parser.parse_args(argv)
    commands[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
