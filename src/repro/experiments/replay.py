"""The record-once / replay-many bench behind ``python -m repro replay``.

Three sections, all in simulated time so the ``BENCH_REPLAY.json``
artifact is byte-identical across same-seed runs:

1. **Cold vs warm pair** — two identically-seeded sessions of one title
   share a :class:`~repro.replay.ReplayHub`.  The cold session runs the
   full pipeline everywhere and records its intervals; the warm session
   (a different ``replay_session_id``, i.e. a second player of the same
   title) is delta-served from the store.  The headline gates: warm
   uplink bytes/frame and warm server execute-time/frame must both be
   at least :data:`MIN_SPEEDUP` times below cold, with zero fidelity
   mismatches on either side and every serve differentially verified.
2. **Divergence drill** — a recorded entry's skeleton is corrupted
   in-store before the warm session runs.  The server's digest check
   must catch the corruption (demote + full-pipeline fallback), and the
   session must still complete with clean fidelity: divergence costs
   bytes, never correctness.
3. **Fleet warm wave** — a single-shard fleet with the controller-owned
   hub serves one cold + N warm sessions of the same title; warm
   sessions must be cheaper per frame and drop nothing.

The harness doubles as a CI gate: :data:`SPEC` diffs the artifact
against the committed baseline (``benchmarks/baselines/BENCH_REPLAY.json``).
Any drift fails — a warm uplink byte, a server execute time — and the
failure names each value that moved.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List

from repro.apps.games import GAMES
from repro.core.config import GBoosterConfig
from repro.core.session import run_offload_session
from repro.devices.profiles import LG_G5, NVIDIA_SHIELD
from repro.experiments.gate import BenchSpec, seal

#: artifact schema identifier, bumped on incompatible changes
BENCH_REPLAY_SCHEMA = "repro.bench_replay/1"

#: acceptance floor: warm / cold per-frame cost ratios (uplink bytes and
#: server execute time) must both clear this factor
MIN_SPEEDUP = 5.0


# -- section 1: the cold/warm pair -------------------------------------------


def _session_summary(result) -> Dict[str, Any]:
    """Deterministic per-session summary of one replay-armed run."""
    stats = result.client_stats
    node = result.nodes[0]
    frames = max(1, stats.frames_presented)
    return {
        "frames": stats.frames_presented,
        "median_fps": round(result.fps.median_fps, 4),
        "uplink_bytes": stats.uplink_bytes,
        "uplink_bytes_per_frame": round(stats.uplink_bytes / frames, 2),
        "server_replay_ms": round(node.stats.replay_ms_total, 4),
        "server_replay_ms_per_frame": round(
            node.stats.replay_ms_total / frames, 5
        ),
        "server_replay_hits": node.stats.replay_hits,
        "server_replay_fallbacks": node.stats.replay_fallbacks,
        "server_replay_ms_saved": round(node.stats.replay_ms_saved, 4),
        "fidelity_mismatches": len(
            result.check.digests.fidelity_mismatches()
        ),
        "replay": result.replay.stats.as_dict(),
        "digest_stream": result.check.digests.stream(),
    }


def run_replay_pair(
    duration_ms: float,
    seed: int,
    game: str = "G5",
    hub=None,
    corrupt_after_cold: bool = False,
) -> Dict[str, Any]:
    """Cold session records; an identically-seeded warm session replays.

    With ``corrupt_after_cold`` the oldest recorded entry's skeleton is
    flipped in-store between the two runs — the divergence drill.
    """
    from repro.replay import ReplayHub

    app = GAMES[game]
    if hub is None:
        hub = ReplayHub()
    config = GBoosterConfig(
        replay=True, check=True, deterministic_content=True
    )

    def one(session_id: str):
        return run_offload_session(
            app, LG_G5, [NVIDIA_SHIELD],
            config=config, duration_ms=duration_ms, seed=seed,
            replay_hub=hub, replay_session_id=session_id,
        )

    cold = one("cold")
    corrupted = None
    if corrupt_after_cold:
        corrupted = _corrupt_oldest_entry(hub.namespace(app.name))
    warm = one("warm")

    cold_summary = _session_summary(cold)
    warm_summary = _session_summary(warm)
    # With deterministic content both sessions issue the same stream, so
    # the issue-digest sequences must agree on the shared prefix — the
    # differential-replay equality check across the cache boundary.
    shared = min(
        len(cold_summary["digest_stream"]), len(warm_summary["digest_stream"])
    )
    prefix_equal = (
        cold_summary["digest_stream"][:shared]
        == warm_summary["digest_stream"][:shared]
    )
    for summary in (cold_summary, warm_summary):
        summary["digest_stream"] = hashlib.sha256(
            "".join(summary["digest_stream"]).encode()
        ).hexdigest()
    frames_ratio = {
        "uplink_bytes_per_frame": _ratio(
            cold_summary["uplink_bytes_per_frame"],
            warm_summary["uplink_bytes_per_frame"],
        ),
        "server_replay_ms_per_frame": _ratio(
            cold_summary["server_replay_ms_per_frame"],
            warm_summary["server_replay_ms_per_frame"],
        ),
    }
    out = {
        "game": game,
        "cold": cold_summary,
        "warm": warm_summary,
        "speedup": frames_ratio,
        "stream_prefix_equal": prefix_equal,
        "shared_prefix_frames": shared,
        "store": hub.namespace(app.name).report(),
    }
    if corrupted is not None:
        out["corrupted_digest"] = corrupted[:16]
    return out


def _ratio(cold: float, warm: float) -> float:
    if warm <= 0:
        return 0.0
    return round(cold / warm, 4)


def _corrupt_oldest_entry(store) -> str:
    """Flip the oldest entry's skeleton in place (the divergence drill).

    Corrupting the *skeleton* matters: a corrupted baseline would be
    self-correcting (the client diffs against the same corrupted values),
    but a skeleton flip reconstructs a different command sequence, which
    the server's digest check must catch.
    """
    entry = store.entries()[0]
    name, args = entry.skeleton[0]
    entry.skeleton = ((name + "_corrupted", args),) + entry.skeleton[1:]
    return entry.digest


# -- section 3: the fleet warm wave ------------------------------------------


def run_replay_fleet(
    duration_ms: float,
    seed: int,
    n_sessions: int = 6,
    game: str = "G5",
) -> Dict[str, Any]:
    """One cold + N-1 warm sessions of one title on a shared pool.

    Replay is incompatible with kernel sharding (per-shard hubs would
    break content-address invariance), so this section always runs the
    single-kernel fleet.
    """
    from repro.fleet import Arrival, FleetConfig, FleetRun
    from repro.sim.kernel import Simulator

    def wave(replay: bool) -> Dict[str, Any]:
        run = FleetRun(
            Simulator(seed=seed), [NVIDIA_SHIELD, LG_G5],
            FleetConfig(replay=replay), duration_ms,
            [
                Arrival(150.0 if i else 0.0, f"s{i:02d}", GAMES[game])
                for i in range(n_sessions)
            ],
            horizon_ms=duration_ms * 4,
        )
        report = run.run()
        run.close()
        frames = sum(t["frames"] for t in report["tiers"].values())
        lost = sum(t["frames_lost"] for t in report["tiers"].values())
        mean_ms = 0.0
        if report["tiers"]:
            weighted = sum(
                t["mean_response_ms"] * t["frames"]
                for t in report["tiers"].values()
            )
            mean_ms = round(weighted / max(1, frames), 4)
        out = {
            "sessions_finished": report["sessions"]["finished"],
            "frames": frames,
            "frames_lost": lost,
            "mean_response_ms": mean_ms,
        }
        if replay:
            out["replay"] = report["replay"]
        return out

    baseline = wave(replay=False)
    warm = wave(replay=True)
    return {
        "sessions": n_sessions,
        "no_replay": baseline,
        "with_replay": warm,
        "response_speedup": _ratio(
            baseline["mean_response_ms"], warm["mean_response_ms"]
        ),
    }


# -- the artifact ------------------------------------------------------------


def run_replay_bench(seed: int = 0, smoke: bool = False) -> Dict[str, Any]:
    """Run every section and assemble the BENCH_REPLAY artifact."""
    session_ms = 4_000.0 if smoke else 15_000.0
    fleet_ms = 2_000.0 if smoke else 5_000.0
    pair = run_replay_pair(session_ms, seed)
    divergence = run_replay_pair(
        session_ms, seed, corrupt_after_cold=True
    )
    fleet = run_replay_fleet(fleet_ms, seed)
    bench: Dict[str, Any] = {
        "seed": seed,
        "smoke": smoke,
        "pair": pair,
        "divergence": divergence,
        "fleet": fleet,
    }
    return {"schema": BENCH_REPLAY_SCHEMA, "deterministic": seal(bench)}


def _checks(det: Dict[str, Any]) -> List[str]:
    """Acceptance gates for BENCH_REPLAY's deterministic section."""
    problems: List[str] = []
    pair = det.get("pair")
    if not isinstance(pair, dict):
        problems.append("missing 'pair' section")
    else:
        warm = pair.get("warm", {})
        if not warm.get("replay", {}).get("hits"):
            problems.append("pair: warm session never hit the store")
        if not warm.get("replay", {}).get("promotions"):
            problems.append("pair: no serve was differentially verified")
        for side in ("cold", "warm"):
            if pair.get(side, {}).get("fidelity_mismatches"):
                problems.append(f"pair: {side} session broke fidelity")
        if not pair.get("stream_prefix_equal"):
            problems.append(
                "pair: cold and warm issue streams diverge — "
                "deterministic content is broken"
            )
        for metric in (
            "uplink_bytes_per_frame", "server_replay_ms_per_frame"
        ):
            speedup = pair.get("speedup", {}).get(metric, 0.0)
            if speedup < MIN_SPEEDUP:
                problems.append(
                    f"pair: warm {metric} only {speedup:.2f}x below cold "
                    f"(need >= {MIN_SPEEDUP:.0f}x)"
                )

    divergence = det.get("divergence")
    if not isinstance(divergence, dict):
        problems.append("missing 'divergence' section")
    else:
        warm = divergence.get("warm", {})
        if not warm.get("replay", {}).get("demotions"):
            problems.append(
                "divergence: corrupted entry was never demoted"
            )
        if not warm.get("replay", {}).get("fallbacks"):
            problems.append(
                "divergence: no fallback ran the full pipeline"
            )
        if warm.get("fidelity_mismatches"):
            problems.append(
                "divergence: corruption leaked into executed frames"
            )
        if not warm.get("frames"):
            problems.append("divergence: warm session did not complete")

    fleet = det.get("fleet")
    if not isinstance(fleet, dict):
        problems.append("missing 'fleet' section")
    else:
        warm_wave = fleet.get("with_replay", {})
        if warm_wave.get("frames_lost"):
            problems.append("fleet: replay wave lost frames")
        if not warm_wave.get("replay", {}).get("warm_sessions"):
            problems.append("fleet: no session was served warm")
        if fleet.get("response_speedup", 0.0) < 1.0:
            problems.append(
                "fleet: replay made the warm wave slower than baseline"
            )
    return problems


# -- output ------------------------------------------------------------------


def format_bench(bench: Dict[str, Any]) -> str:
    """Terminal summary: the cold/warm table plus the drill outcomes."""
    det = bench["deterministic"]
    pair = det["pair"]
    lines = [
        f"{'session':<8} {'frames':>6} {'uplink B/frame':>15} "
        f"{'server ms/frame':>16} {'hits':>5} {'promos':>6} {'fid':>4}"
    ]
    for side in ("cold", "warm"):
        s = pair[side]
        lines.append(
            f"{side:<8} {s['frames']:6d} {s['uplink_bytes_per_frame']:15.1f} "
            f"{s['server_replay_ms_per_frame']:16.5f} "
            f"{s['replay']['hits']:5d} {s['replay']['promotions']:6d} "
            f"{s['fidelity_mismatches']:4d}"
        )
    speedup = pair["speedup"]
    lines.append(
        f"speedup: uplink {speedup['uplink_bytes_per_frame']:.1f}x, "
        f"server {speedup['server_replay_ms_per_frame']:.1f}x "
        f"(gate >= {MIN_SPEEDUP:.0f}x)"
    )
    div = det["divergence"]["warm"]["replay"]
    lines.append(
        f"divergence drill: demotions={div['demotions']} "
        f"fallbacks={div['fallbacks']} "
        f"fidelity_mismatches="
        f"{det['divergence']['warm']['fidelity_mismatches']}"
    )
    fleet = det["fleet"]
    lines.append(
        f"fleet wave: {fleet['with_replay']['replay']['warm_sessions']} warm "
        f"/ {fleet['sessions']} sessions, response "
        f"{fleet['no_replay']['mean_response_ms']:.1f} -> "
        f"{fleet['with_replay']['mean_response_ms']:.1f} ms "
        f"({fleet['response_speedup']:.2f}x)"
    )
    lines.append(f"digest: {det['digest'][:16]}…")
    return "\n".join(lines)


SPEC = BenchSpec(
    name="replay",
    schema=BENCH_REPLAY_SCHEMA,
    artifact="BENCH_REPLAY.json",
    run=lambda seed, smoke, workers: run_replay_bench(seed, smoke),
    checks=_checks,
    format=format_bench,
    parallel=False,
)
