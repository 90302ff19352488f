"""Seeded property fuzzing with shrinking — ``python -m repro fuzz``.

A pure-stdlib property harness over the simulator's own subsystems.  Each
:class:`Property` knows how to *generate* a random-but-seeded case (a
JSON-able dict), *check* it (returning ``None`` on pass or a failure
message), and propose *shrink candidates* (strictly smaller cases).  The
runner executes a seeded batch per property, greedily shrinks any failure
to a minimal reproduction, and can write minimal cases to a corpus
directory (``tests/check/corpus/``) as regression fixtures.

Properties cover the layers the ISSUE names:

* ``lz77_roundtrip`` / ``delta_roundtrip`` — codec byte-equality over
  randomized payloads (empty / tiny / repetitive / adversarial);
* ``cache_lockstep`` — randomized GL command streams (deferred pointers,
  draws, uniforms, signed zeros, frames repeated with the same command
  objects) through the egress pipeline: sender/receiver caches in
  lockstep, raw bytes as serialized, the payload byte-identical to a
  serialize-everything reference kept under ``tests/codec``, every
  cache reference standing for the bytes of the command it replaces, and
  the frame template agreeing with a pipeline fed per-frame copies;
* ``transport_delivery`` — randomized message batches over a lossy link,
  checked against the transport conservation laws;
* ``replay_coherence`` — interleaved record/evict/delta-serve steps from
  two sessions sharing one replay store always execute exactly the
  issued command stream;
* ``session_chaos`` — short offloaded sessions under randomized fault
  schedules with the invariant monitor armed;
* ``fleet_arrivals`` — randomized fleet arrival patterns with the fleet
  invariants armed;
* ``plan_fusion_equivalence`` — seeded random GLES sessions
  (``repro.check.glgen``) keep identical render digests through the
  command-stream fusion pass, and fusion is idempotent;
* ``planner_determinism`` — two planners over one session context probe
  to byte-identical decisions, and the commit is always a viable
  candidate.

The codec and transport properties take injectable subjects
(``decompress_fn``, ``transport_cls``) so tests can hand them a
deliberately broken implementation and watch the harness catch and shrink
the bug — the acceptance-criteria demonstration.

Everything is deterministic under a fixed seed: the summary carries a
sha256 digest, and the CLI smoke mode runs the whole suite twice and
fails on any digest difference.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.obs.digest import digest_of

CASE_SCHEMA = "repro.fuzz_case/1"

#: shrink effort cap per failure: candidates *tried*, not accepted
MAX_SHRINK_TRIES = 400


# ---------------------------------------------------------------------------
# framework


@dataclass
class FuzzFailure:
    """One failing case, after shrinking."""

    property: str
    message: str
    case: Dict[str, Any]
    original_case: Dict[str, Any]
    shrink_steps: int


class Property:
    """One fuzzed law.  Subclasses define generate/check/shrink."""

    name = "property"

    def generate(self, rng: random.Random) -> Dict[str, Any]:
        raise NotImplementedError

    def check(self, case: Dict[str, Any]) -> Optional[str]:
        """None when the law holds, else a failure message."""
        raise NotImplementedError

    def shrink_candidates(
        self, case: Dict[str, Any]
    ) -> Iterable[Dict[str, Any]]:
        return ()


def _shrink_hex(case: Dict[str, Any], key: str) -> Iterable[Dict[str, Any]]:
    """Standard byte-payload shrinks: halves, single-byte drops, zeroing."""
    data = bytes.fromhex(case[key])
    n = len(data)
    if n == 0:
        return
    for piece in (data[: n // 2], data[n // 2:], data[1:], data[:-1]):
        if len(piece) < n:
            yield {**case, key: piece.hex()}
    if n <= 16:
        for i in range(n):
            yield {**case, key: (data[:i] + data[i + 1:]).hex()}
        for i in range(n):
            if data[i] != 0:
                zeroed = bytearray(data)
                zeroed[i] = 0
                yield {**case, key: bytes(zeroed).hex()}


def shrink(
    prop: Property, case: Dict[str, Any], max_tries: int = MAX_SHRINK_TRIES
) -> tuple:
    """Greedy shrink: accept any strictly-smaller case that still fails."""
    current = case
    steps = 0
    tries = 0
    improved = True
    while improved and tries < max_tries:
        improved = False
        for candidate in prop.shrink_candidates(current):
            tries += 1
            if tries > max_tries:
                break
            if prop.check(candidate) is not None:
                current = candidate
                steps += 1
                improved = True
                break
    return current, steps


def run_property(
    prop: Property, seed: int, cases: int, do_shrink: bool = True
) -> Dict[str, Any]:
    """Run ``cases`` seeded cases of one property; shrink any failures."""
    root = int.from_bytes(
        hashlib.sha256(f"{seed}.{prop.name}".encode()).digest()[:8], "big"
    )
    rng = random.Random(root)
    failures: List[FuzzFailure] = []
    for _ in range(cases):
        case = prop.generate(rng)
        message = prop.check(case)
        if message is None:
            continue
        minimal, steps = (
            shrink(prop, case) if do_shrink else (case, 0)
        )
        failures.append(
            FuzzFailure(
                property=prop.name,
                message=prop.check(minimal) or message,
                case=minimal,
                original_case=case,
                shrink_steps=steps,
            )
        )
    return {"property": prop.name, "cases": cases, "failures": failures}


# ---------------------------------------------------------------------------
# codec properties


class Lz77RoundTrip(Property):
    """decompress(compress(p)) == p for randomized payloads."""

    name = "lz77_roundtrip"

    def __init__(self, decompress_fn: Optional[Callable] = None):
        from repro.codec.lz77 import decompress

        self.decompress_fn = decompress_fn or decompress

    def generate(self, rng: random.Random) -> Dict[str, Any]:
        mode = rng.choice(["random", "repetitive", "sparse", "tiny", "empty"])
        if mode == "empty":
            payload = b""
        elif mode == "tiny":
            payload = bytes(rng.randrange(256) for _ in range(rng.randint(1, 4)))
        elif mode == "repetitive":
            motif = bytes(
                rng.randrange(256) for _ in range(rng.randint(1, 8))
            )
            payload = motif * rng.randint(8, 200)
        elif mode == "sparse":
            payload = bytearray(rng.randint(32, 1024))
            for _ in range(rng.randint(1, 12)):
                payload[rng.randrange(len(payload))] = rng.randrange(256)
            payload = bytes(payload)
        else:
            payload = bytes(
                rng.randrange(256) for _ in range(rng.randint(8, 1024))
            )
        return {"payload": payload.hex()}

    def check(self, case: Dict[str, Any]) -> Optional[str]:
        from repro.codec.lz77 import compress

        data = bytes.fromhex(case["payload"])
        try:
            back = self.decompress_fn(compress(data))
        except Exception as exc:
            return f"decompress raised {type(exc).__name__}: {exc}"
        if back != data:
            return (
                f"round-trip mismatch: {len(data)} bytes in, "
                f"{len(back)} bytes out"
            )
        return None

    def shrink_candidates(self, case):
        return _shrink_hex(case, "payload")


class DeltaRoundTrip(Property):
    """Turbo's lossless delta layer: decode(encode(d), len) == d."""

    name = "delta_roundtrip"

    def generate(self, rng: random.Random) -> Dict[str, Any]:
        mode = rng.choice(["random", "constant", "small_alphabet", "empty"])
        if mode == "empty":
            deltas = b""
        elif mode == "constant":
            deltas = bytes([rng.randrange(256)]) * rng.randint(1, 700)
        elif mode == "small_alphabet":
            alphabet = [rng.randrange(256) for _ in range(rng.randint(1, 15))]
            deltas = bytes(
                rng.choice(alphabet) for _ in range(rng.randint(1, 700))
            )
        else:
            deltas = bytes(
                rng.randrange(256) for _ in range(rng.randint(1, 700))
            )
        return {"deltas": deltas.hex()}

    def check(self, case: Dict[str, Any]) -> Optional[str]:
        import numpy as np

        from repro.codec.turbo import decode_deltas, encode_deltas

        flat = np.frombuffer(bytes.fromhex(case["deltas"]), dtype=np.uint8)
        try:
            back = decode_deltas(encode_deltas(flat), flat.size)
        except Exception as exc:
            return f"decode raised {type(exc).__name__}: {exc}"
        if not np.array_equal(back, flat):
            return f"delta round-trip mismatch over {flat.size} values"
        return None

    def shrink_candidates(self, case):
        return _shrink_hex(case, "deltas")


#: uniform values with equal-but-differently-written twins: ``-0.0 ==
#: 0.0`` and ``1 == 1.0`` key the same cache entry under different reprs
_LOCKSTEP_UNIFORMS = (0.0, -0.0, 1, 1.0, 0.5, 2)
_POINTER_SOURCES = ("client", "vbo", "inline")


def _pipeline_reference():
    """The serialize-everything egress oracle kept beside the codec tests
    (``tests/codec/pipeline_reference.py``)."""
    import importlib.util

    path = (
        Path(__file__).resolve().parents[3]
        / "tests" / "codec" / "pipeline_reference.py"
    )
    if not path.is_file():
        raise FileNotFoundError(
            f"cache_lockstep needs its reference oracle at {path}"
        )
    spec = importlib.util.spec_from_file_location("pipeline_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SerializeEverythingPipeline


def _lockstep_frames(ops: List[Any]) -> List[List[Any]]:
    """Decode a case's ops into per-frame GL command lists.

    An int binds that texture name; ``["ptr", index, source, variant]``
    sets a vertex pointer whose payload is a client array (deferred to the
    next draw), a VBO offset (deferred) or inline bytes;
    ``["draw", first, count]`` draws; ``["uniform", location, value]``
    sets a float uniform; ``["signed_zero", location]`` sets it to ``0.0``
    and then to ``-0.0``; ``["frame"]`` ends the frame; ``["repeat"]``
    ends it and issues it once more.

    Equal ops decode to one shared command object, as an app reissues
    its unchanged commands, so a repeated frame is made of the very
    objects of the first and can take the pipeline's frame template.
    """
    from repro.gles import enums as gl
    from repro.gles.commands import make_command
    from repro.gles.serialization import ClientArray

    built: Dict[str, Any] = {}

    def command(op: Any, *call: Any) -> Any:
        # repr tells 0.0 from -0.0 and 1 from 1.0, as the wire does
        cmd = built.get(repr(op))
        if cmd is None:
            cmd = built[repr(op)] = make_command(*call)
        return cmd

    frames: List[List[Any]] = [[]]
    for op in ops:
        if isinstance(op, int):
            frames[-1].append(
                command(op, "glBindTexture", gl.GL_TEXTURE_2D, op)
            )
            continue
        kind = op[0]
        if kind == "frame":
            frames.append([])
        elif kind == "repeat":
            frames.extend([list(frames[-1]), []])
        elif kind == "ptr":
            _, index, source, variant = op
            data = bytes((variant * 7 + i) % 256 for i in range(96))
            pointer = {
                "client": ClientArray(data, array_id=variant),
                "vbo": 16 * variant,
                "inline": data[: 12 * (variant + 1)],
            }[source]
            frames[-1].append(command(
                op, "glVertexAttribPointer", index, 3, gl.GL_FLOAT, False, 0,
                pointer,
            ))
        elif kind == "draw":
            frames[-1].append(command(
                op, "glDrawArrays", gl.GL_TRIANGLES, op[1], op[2]
            ))
        elif kind == "uniform":
            frames[-1].append(command(op, "glUniform1f", op[1], op[2]))
        elif kind == "signed_zero":
            for value in (0.0, -0.0):
                frames[-1].append(command(
                    ["uniform", op[1], value], "glUniform1f", op[1], value,
                ))
        else:
            raise ValueError(f"unknown cache_lockstep op {op!r}")
    return frames


def _receiver_stream_problem(
    payload: bytes, issued: List[Any], learned: Dict[bytes, bytes]
) -> Optional[str]:
    """Read an uncompressed payload back as the receiver does and compare
    it with the issued (resolved) commands' own serializations.

    A full command teaches ``learned`` the wire its reference stands for;
    a reference must stand for exactly the wire of the command issued in
    its place, so two commands that serialize differently can never
    share a cache entry.
    """
    from repro.codec.command_cache import (
        REFERENCE_BYTES,
        REFERENCE_MARKER,
        key_digest,
    )
    from repro.gles.serialization import serialize_command

    off = 0
    for cmd in issued:
        wire = serialize_command(cmd)
        if payload[off:off + 2] == REFERENCE_MARKER:
            reference = payload[off:off + REFERENCE_BYTES]
            if learned.get(reference) != wire:
                return (
                    f"a reference stands in for {cmd.name}{cmd.args!r} "
                    "but names other bytes"
                )
            off += REFERENCE_BYTES
        else:
            if payload[off:off + len(wire)] != wire:
                return f"{cmd.name} did not travel as its serialization"
            learned[REFERENCE_MARKER + key_digest(cmd.key())] = wire
            off += len(wire)
    if off != len(payload):
        return f"{len(payload) - off} trailing payload bytes"
    return None


def _pipeline_state(pipeline: Any) -> Any:
    """Both caches' key order, entries and stats, and the serializer's
    counters."""
    serializer = pipeline.serializer
    return (
        [
            (repr(side.keys_in_order()), side.items(), side.stats)
            for side in (pipeline.cache.sender, pipeline.cache.receiver)
        ],
        serializer.deferrals,
        serializer.pending_deferred,
    )


class CacheLockstep(Property):
    """Randomized GL streams through the egress pipeline keep the
    sender/receiver caches in lockstep and match a serialize-everything
    reference byte for byte.

    ``reference`` builds the oracle from a capacity; by default it is
    ``SerializeEverythingPipeline`` from ``tests/codec``.
    """

    name = "cache_lockstep"

    def __init__(self, reference=None):
        self.reference = reference

    def generate(self, rng: random.Random) -> Dict[str, Any]:
        # a narrow texture-id space forces hits, a wide one evictions
        span = rng.choice([4, 16, 64])
        ops: List[Any] = []
        for _ in range(rng.randint(1, 120)):
            roll = rng.random()
            if roll < 0.3:
                ops.append(rng.randint(0, span))
            elif roll < 0.5:
                ops.append(["ptr", rng.randint(0, 2),
                            rng.choice(_POINTER_SOURCES), rng.randint(0, 3)])
            elif roll < 0.7:
                ops.append(["draw", rng.randint(0, 2), rng.randint(0, 8)])
            elif roll < 0.85:
                ops.append(["uniform", rng.randint(0, 3),
                            rng.choice(_LOCKSTEP_UNIFORMS)])
            elif roll < 0.88:
                ops.append(["signed_zero", rng.randint(0, 3)])
            elif roll < 0.95:
                ops.append(["frame"])
            else:
                ops.append(["repeat"])
        return {"capacity": rng.randint(2, 32), "ops": ops}

    def check(self, case: Dict[str, Any]) -> Optional[str]:
        from repro.codec.pipeline import CommandPipeline, PipelineConfig
        from repro.gles.commands import GLCommand
        from repro.gles.serialization import (
            CommandSerializer,
            serialize_command,
        )

        capacity = case["capacity"]
        config = PipelineConfig(
            cache_capacity=capacity, compression_enabled=False,
        )
        pipeline = CommandPipeline(config)
        # fed a copy of every command, so it never takes a frame template
        copied = CommandPipeline(config)
        if self.reference is None:
            self.reference = _pipeline_reference()
        reference = self.reference(capacity)
        everything = CommandSerializer()
        learned: Dict[bytes, bytes] = {}
        pair = pipeline.cache
        for index, frame in enumerate(_lockstep_frames(case["ops"])):
            try:
                egress = pipeline.process_frame(frame)
            except RuntimeError as exc:
                return f"cache pair desynced: {exc}"
            if egress != copied.process_frame(
                [copy.copy(cmd) for cmd in frame]
            ) or _pipeline_state(pipeline) != _pipeline_state(copied):
                return (
                    f"frame {index}: the frame template disagrees with "
                    "the full resolve and cache path"
                )
            issued = [r for cmd in frame for r in everything.resolve(cmd)]
            raw = sum(len(serialize_command(cmd)) for cmd in issued)
            if egress.raw_bytes != raw:
                return (
                    f"frame {index}: raw_bytes {egress.raw_bytes} != "
                    f"{raw} serialized"
                )
            for key, wire in pair.sender.items():
                if wire != serialize_command(GLCommand(key[0], key[1])):
                    return (
                        f"frame {index}: sender entry {key[0]} is not "
                        "the serialization of its key"
                    )
            if egress.payload != reference.process_frame(frame):
                return (
                    f"frame {index}: payload differs from the "
                    "serialize-everything reference"
                )
            problem = _receiver_stream_problem(
                egress.payload, issued, learned
            )
            if problem is not None:
                return f"frame {index}: {problem}"
        if not pair.verify_consistent():
            return "sender and receiver key order diverged"
        for side, cache in (("sender", pair.sender),
                            ("receiver", pair.receiver)):
            if len(cache) > cache.capacity:
                return f"{side} cache over capacity"
            if cache.stats.hits > cache.stats.lookups:
                return f"{side} hits exceed lookups"
        if pair.sender.stats.hits != pair.receiver.stats.hits:
            return "hit counts diverged"
        return None

    def shrink_candidates(self, case):
        ops = case["ops"]
        n = len(ops)
        for piece in (ops[: n // 2], ops[n // 2:], ops[1:], ops[:-1]):
            if len(piece) < n:
                yield {**case, "ops": piece}
        if n <= 12:
            for i in range(n):
                yield {**case, "ops": ops[:i] + ops[i + 1:]}


# ---------------------------------------------------------------------------
# transport property


class TransportDelivery(Property):
    """Lossy-link batches obey the transport conservation laws.

    ``transport_cls`` is injectable so a deliberately broken transport
    (e.g. one that delivers out of order) is caught and shrunk.
    """

    name = "transport_delivery"

    def __init__(self, transport_cls=None):
        self.transport_cls = transport_cls

    def generate(self, rng: random.Random) -> Dict[str, Any]:
        return {
            "seed": rng.randint(0, 2**31),
            "loss": round(rng.uniform(0.0, 0.35), 3),
            "sizes": [
                rng.randint(40, 20_000)
                for _ in range(rng.randint(1, 30))
            ],
        }

    def check(self, case: Dict[str, Any]) -> Optional[str]:
        from repro.net.interface import WIFI_80211N, WirelessInterface
        from repro.net.link import LinkSpec, NetworkLink
        from repro.net.message import Message
        from repro.net.transport import ReliableUdpTransport
        from repro.sim.kernel import Simulator

        cls = self.transport_cls or ReliableUdpTransport
        sim = Simulator(seed=case["seed"])
        radio = WirelessInterface(sim, WIFI_80211N)
        link = NetworkLink(
            sim,
            LinkSpec(name="wifi", latency_ms=1.0, jitter_ms=0.4,
                     loss_probability=case["loss"]),
            rng=sim.stream("fuzz.link"),
        )
        delivered: List[int] = []
        transport = cls(sim, name="fuzz", rto_ms=20.0)
        transport.bind(
            lambda: radio, {"wifi": link},
            on_deliver=lambda m: delivered.append(m.metadata["n"]),
        )
        for i, size in enumerate(case["sizes"]):
            msg = Message.of_size(size)
            msg.message_id = sim.next_message_id()
            msg.metadata["n"] = i
            transport.send(msg)
        sim.run(until=120_000.0)
        sim.teardown()

        n = len(case["sizes"])
        if delivered != list(range(n)):
            return (
                f"out-of-order or incomplete delivery: got {delivered[:8]}… "
                f"({len(delivered)}/{n})"
            )
        stats = transport.stats
        accounted = (
            stats.messages_delivered
            + transport.in_flight()
            + transport.reorder_held()
        )
        if stats.messages_sent != accounted:
            return (
                f"message conservation broke: sent {stats.messages_sent}, "
                f"accounted {accounted}"
            )
        if stats.messages_delivered != transport._expected_seq:
            return "delivered count out of lockstep with expected seq"
        if stats.bytes_delivered > stats.bytes_offered:
            return "delivered more bytes than offered"
        return None

    def shrink_candidates(self, case):
        sizes = case["sizes"]
        n = len(sizes)
        for piece in (sizes[: n // 2], sizes[n // 2:], sizes[1:], sizes[:-1]):
            if len(piece) < n:
                yield {**case, "sizes": piece}
        if n <= 8:
            for i in range(n):
                yield {**case, "sizes": sizes[:i] + sizes[i + 1:]}
        if case["loss"] > 0:
            yield {**case, "loss": 0.0}
        if any(s > 100 for s in sizes):
            yield {**case, "sizes": [min(s, 100) for s in sizes]}


# ---------------------------------------------------------------------------
# session / fleet properties


class SessionChaos(Property):
    """Random fault schedules never break the session conservation laws."""

    name = "session_chaos"

    def generate(self, rng: random.Random) -> Dict[str, Any]:
        return {
            "seed": rng.randint(0, 2**31),
            "loss": round(rng.uniform(0.0, 0.4), 3),
            "outage_ms": rng.choice([0.0, 200.0, 500.0]),
            "crash": rng.random() < 0.5,
            "duration_ms": rng.choice([1_500.0, 2_000.0]),
        }

    def check(self, case: Dict[str, Any]) -> Optional[str]:
        from repro.apps.games import GTA_SAN_ANDREAS
        from repro.core.config import GBoosterConfig
        from repro.core.session import run_offload_session
        from repro.devices.profiles import LG_NEXUS_5, NVIDIA_SHIELD
        from repro.experiments.chaos import build_schedule

        config = GBoosterConfig(
            check=True,
            frame_timeout_ms=400.0,
            faults=build_schedule(
                case["loss"], case["outage_ms"], case["crash"],
                case["duration_ms"],
            ),
        )
        result = run_offload_session(
            GTA_SAN_ANDREAS, LG_NEXUS_5, [NVIDIA_SHIELD, NVIDIA_SHIELD],
            config=config, duration_ms=case["duration_ms"],
            seed=case["seed"],
        )
        if result.check.violations:
            return f"invariants broke: {result.check.violations[0]}"
        mismatches = result.check.digests.fidelity_mismatches()
        if mismatches:
            return f"execution fidelity broke at frame {mismatches[0]['frame_id']}"
        lost = sum(
            1 for f in result.engine.frames if f.presented_at is None
        )
        if lost:
            return f"{lost} frames lost forever"
        return None

    def shrink_candidates(self, case):
        if case["crash"]:
            yield {**case, "crash": False}
        if case["outage_ms"] > 0:
            yield {**case, "outage_ms": 0.0}
        if case["loss"] > 0:
            yield {**case, "loss": round(case["loss"] / 2, 3)}
            yield {**case, "loss": 0.0}
        if case["duration_ms"] > 1_500.0:
            yield {**case, "duration_ms": 1_500.0}


class FleetArrivals(Property):
    """Random arrival waves never break the fleet conservation laws."""

    name = "fleet_arrivals"

    def generate(self, rng: random.Random) -> Dict[str, Any]:
        return {
            "seed": rng.randint(0, 2**31),
            "n_sessions": rng.randint(3, 14),
            "n_devices": rng.randint(2, 4),
            "crash": rng.random() < 0.5,
            "arrival_spread_ms": rng.choice([100.0, 600.0, 1_500.0]),
        }

    def check(self, case: Dict[str, Any]) -> Optional[str]:
        from repro.experiments.fleet import run_fleet_point
        from repro.fleet import FleetConfig

        point, report = run_fleet_point(
            n_sessions=case["n_sessions"],
            n_devices=case["n_devices"],
            duration_ms=2_000.0,
            seed=case["seed"],
            crash=case["crash"],
            config=FleetConfig(check=True),
            arrival_spread_ms=case["arrival_spread_ms"],
        )
        if point.invariant_violations:
            return f"{point.invariant_violations} fleet invariants broke"
        if point.frames_lost:
            return f"{point.frames_lost} frames lost forever"
        return None

    def shrink_candidates(self, case):
        if case["crash"]:
            yield {**case, "crash": False}
        if case["n_sessions"] > 1:
            yield {**case, "n_sessions": max(1, case["n_sessions"] // 2)}
            yield {**case, "n_sessions": case["n_sessions"] - 1}
        if case["n_devices"] > 1:
            yield {**case, "n_devices": case["n_devices"] - 1}


class ReplayCoherence(Property):
    """Replay-cache coherence across two sessions sharing one store.

    Any interleaving of record / bypass / delta-serve / evict steps must
    execute exactly what was issued: a served interval's reconstruction
    digests equal to the live command stream, and the store's byte
    accounting never drifts.  Tiny capacities force evictions mid-stream;
    served entries are pinned, so a serve must never lose its baseline.
    """

    name = "replay_coherence"

    def generate(self, rng: random.Random) -> Dict[str, Any]:
        n_templates = rng.randint(1, 6)
        steps = []
        for _ in range(rng.randint(1, 40)):
            if rng.random() < 0.1:
                steps.append(["evict", rng.randrange(n_templates), 0.0])
            else:
                steps.append([
                    "frame",
                    rng.randrange(n_templates),
                    round(rng.uniform(0.0, 4.0), 3),
                    rng.randrange(2),            # which session issues it
                ])
        return {
            "capacity": rng.choice([512, 2_048, 1 << 20]),
            "templates": n_templates,
            "steps": steps,
        }

    @staticmethod
    def _batch(template: int, value: float):
        from repro.gles import enums as gl
        from repro.gles.commands import make_command

        return [
            make_command("glUseProgram", template + 1),
            make_command("glUniform1f", 7, float(value)),
            make_command(
                "glUniform4f", 8,
                float(value) * 0.5, 0.25, float(template), 1.0,
            ),
            make_command("glDrawArrays", gl.GL_TRIANGLES, 0,
                         3 * (template + 1)),
        ]

    def check(self, case: Dict[str, Any]) -> Optional[str]:
        from repro.check.digest import command_digest
        from repro.replay import ReplaySession, ReplayStore
        from repro.replay.session import (
            interval_content_digest,
            reconstruct_interval,
        )

        store = ReplayStore("fuzz", capacity_bytes=case["capacity"])
        sessions = [
            ReplaySession(store, session_id=f"s{i}") for i in range(2)
        ]
        for step in case["steps"]:
            if step[0] == "evict":
                digest = interval_content_digest(
                    self._batch(int(step[1]), 0.0)
                )
                store.demote(digest)
                continue
            _, template, value, who = step
            commands = self._batch(int(template), float(value))
            session = sessions[int(who)]
            decision = session.classify(commands)
            if decision.action == "record":
                session.commit_record(
                    decision, wire_bytes=400, raw_bytes=800,
                    nominal_commands=len(commands),
                )
                executed = commands
            elif decision.action == "bypass":
                executed = commands
            else:
                try:
                    executed = reconstruct_interval(
                        decision.entry, decision.patch, decision.variant
                    )
                except Exception as exc:
                    return (
                        f"serve failed to reconstruct: "
                        f"{type(exc).__name__}: {exc}"
                    )
                if decision.promote:
                    store.promote(decision.digest)
            if command_digest(executed) != command_digest(commands):
                return (
                    f"{decision.action} executed a different stream for "
                    f"template {template}"
                )
        expected = sum(e.byte_size for e in store.entries())
        if store.bytes_stored != expected:
            return (
                f"byte accounting drifted: stored={store.bytes_stored}, "
                f"entries sum to {expected}"
            )
        if store.bytes_stored > store.capacity_bytes:
            return "store exceeded its byte budget"
        for session in sessions:
            session.close()
        if any(e.refcount for e in store.entries()):
            return "closed sessions left entries pinned"
        return None

    def shrink_candidates(self, case):
        steps = case["steps"]
        n = len(steps)
        for piece in (steps[: n // 2], steps[n // 2:], steps[1:], steps[:-1]):
            if len(piece) < n:
                yield {**case, "steps": piece}
        if n <= 10:
            for i in range(n):
                yield {**case, "steps": steps[:i] + steps[i + 1:]}
        if case["capacity"] < (1 << 20):
            yield {**case, "capacity": 1 << 20}


# ---------------------------------------------------------------------------
# planner properties


class PlanFusionEquivalence(Property):
    """Fused command streams render exactly what the original renders.

    Seeded random GLES sessions (:mod:`repro.check.glgen`) — redundant
    state churn, uniform rewrite runs, texture-unit hops, injected
    invalid calls — are run through the fusion pass; the fused stream
    must produce identical per-draw and final state digests on a fresh
    GL context.  This is the law that makes fusion safe to enable on any
    transmit path.
    """

    name = "plan_fusion_equivalence"

    def generate(self, rng: random.Random) -> Dict[str, Any]:
        from repro.check.glgen import generate_case

        return generate_case(rng)

    def check(self, case: Dict[str, Any]) -> Optional[str]:
        from repro.check.glgen import build_commands
        from repro.codec.fusion import fuse_commands, render_digest

        commands = build_commands(case)
        fused, stats = fuse_commands(commands)
        if render_digest(fused) != render_digest(commands):
            return (
                f"fused stream diverged: {len(commands)} commands in, "
                f"{len(fused)} out ({stats.dropped} dropped)"
            )
        refused, restats = fuse_commands(fused)
        if restats.dropped:
            return (
                f"fusion not idempotent: second pass dropped "
                f"{restats.dropped} more commands"
            )
        return None

    def shrink_candidates(self, case):
        for key in ("frames", "draws_per_frame", "programs", "textures",
                    "uniform_locations"):
            if case[key] > 1:
                yield {**case, key: case[key] - 1}
                yield {**case, key: 1}
        for key in ("redundancy", "unit_hops", "error_rate"):
            if case[key] > 0:
                yield {**case, key: 0.0}
                yield {**case, key: round(case[key] / 2, 3)}


class PlannerDeterminism(Property):
    """Same (seed, context) → byte-identical plan decision.

    Two independently constructed planners over the same session context
    must probe to identical scores and commit to the same backend, and
    the committed backend must be one of the viable candidates.
    """

    name = "planner_determinism"

    def generate(self, rng: random.Random) -> Dict[str, Any]:
        return {
            "seed": rng.randint(0, 2**31),
            "app": rng.choice(["G1", "G2", "G3", "G4", "G5"]),
            "service": rng.random() < 0.85,
            "wan": rng.random() < 0.5,
            "replay_warm": rng.random() < 0.4,
            "viewers": rng.choice([1, 1, 2, 3]),
            "wifi_mbps": rng.choice([0.0, 6.0, 40.0, 120.0]),
            "probe_frames": rng.choice([4, 8, 12]),
        }

    @staticmethod
    def _context(case: Dict[str, Any]):
        from repro.apps.games import GAMES
        from repro.core.config import GBoosterConfig
        from repro.devices.profiles import LG_NEXUS_5, NVIDIA_SHIELD
        from repro.net.wan import WAN_BROADBAND
        from repro.plan import SessionContext

        app = GAMES[case["app"]]
        return SessionContext(
            app=app,
            user_device=LG_NEXUS_5,
            service_device=NVIDIA_SHIELD if case["service"] else None,
            wan=WAN_BROADBAND if case["wan"] else None,
            replay_warm=case["replay_warm"],
            colocated_viewers=case["viewers"],
            wifi_mbps=case["wifi_mbps"],
            config=GBoosterConfig(
                planner_probe_frames=case["probe_frames"]
            ),
        )

    def check(self, case: Dict[str, Any]) -> Optional[str]:
        from repro.plan import SessionPlanner, enumerate_candidates

        first = SessionPlanner(self._context(case), seed=case["seed"])
        second = SessionPlanner(self._context(case), seed=case["seed"])
        a = first.probe_and_commit().to_dict()
        b = second.probe_and_commit().to_dict()
        if json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True):
            return "two planners over one context committed differently"
        viable = {
            c.backend
            for c in enumerate_candidates(self._context(case))
            if c.viable
        }
        if a["backend"] not in viable:
            return f"committed backend {a['backend']!r} was not viable"
        return None

    def shrink_candidates(self, case):
        if case["probe_frames"] > 1:
            yield {**case, "probe_frames": 1}
        for key in ("wan", "replay_warm", "service"):
            if case[key]:
                yield {**case, key: False}
        if case["viewers"] > 1:
            yield {**case, "viewers": 1}


# ---------------------------------------------------------------------------
# corpus


def save_case(
    corpus_dir: Path, failure: FuzzFailure, note: str = ""
) -> Path:
    """Write a shrunk failing case as a regression fixture."""
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    body = {
        "schema": CASE_SCHEMA,
        "property": failure.property,
        "case": failure.case,
        "message": failure.message,
        "shrink_steps": failure.shrink_steps,
        "note": note,
    }
    blob = json.dumps(body, sort_keys=True, indent=2) + "\n"
    stem = digest_of({"p": failure.property, "c": failure.case})[:12]
    path = corpus_dir / f"{failure.property}-{stem}.json"
    path.write_text(blob)
    return path


def load_corpus(corpus_dir: Path) -> List[Dict[str, Any]]:
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        return []
    out = []
    for path in sorted(corpus_dir.glob("*.json")):
        body = json.loads(path.read_text())
        if body.get("schema") != CASE_SCHEMA:
            raise ValueError(f"{path}: unknown schema {body.get('schema')!r}")
        body["path"] = str(path)
        out.append(body)
    return out


def default_properties() -> List[Property]:
    return [
        Lz77RoundTrip(),
        DeltaRoundTrip(),
        CacheLockstep(),
        TransportDelivery(),
        ReplayCoherence(),
        SessionChaos(),
        FleetArrivals(),
        PlanFusionEquivalence(),
        PlannerDeterminism(),
    ]


def replay_corpus(
    corpus_dir: Path, properties: Optional[Sequence[Property]] = None
) -> List[Dict[str, Any]]:
    """Re-run every corpus case against the current code.

    Committed corpus cases document once-failing (or notable) inputs; a
    non-None check result here means a regression resurfaced.  Returns the
    list of cases that fail *now*.
    """
    props = {p.name: p for p in (properties or default_properties())}
    failing = []
    for body in load_corpus(corpus_dir):
        prop = props.get(body["property"])
        if prop is None:
            raise ValueError(f"corpus names unknown property {body['property']!r}")
        message = prop.check(body["case"])
        if message is not None:
            failing.append({**body, "message_now": message})
    return failing


# ---------------------------------------------------------------------------
# the harness entry point

#: cases per property at rounds=1; smoke divides heavy properties down
FULL_CASES = {
    "lz77_roundtrip": 120,
    "delta_roundtrip": 120,
    "cache_lockstep": 40,
    "transport_delivery": 16,
    "replay_coherence": 40,
    "session_chaos": 4,
    "fleet_arrivals": 2,
    "plan_fusion_equivalence": 60,
    "planner_determinism": 8,
}
SMOKE_CASES = {
    "lz77_roundtrip": 24,
    "delta_roundtrip": 24,
    "cache_lockstep": 12,
    "transport_delivery": 6,
    "replay_coherence": 12,
    "session_chaos": 2,
    "fleet_arrivals": 1,
    "plan_fusion_equivalence": 16,
    "planner_determinism": 3,
}


def run_fuzz(
    smoke: bool = False,
    seed: int = 0,
    rounds: int = 1,
    properties: Optional[Sequence[Property]] = None,
    corpus_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run the whole property suite; returns a deterministic summary.

    When ``corpus_dir`` is given, every shrunk failure is saved there as a
    regression fixture.
    """
    props = list(properties or default_properties())
    budget = SMOKE_CASES if smoke else FULL_CASES
    results = []
    total_failures = 0
    for prop in props:
        cases = budget.get(prop.name, 8) * max(1, rounds)
        outcome = run_property(prop, seed=seed, cases=cases)
        for failure in outcome["failures"]:
            total_failures += 1
            if corpus_dir is not None:
                save_case(Path(corpus_dir), failure)
        results.append(
            {
                "property": prop.name,
                "cases": outcome["cases"],
                "failures": [
                    {
                        "message": f.message,
                        "case": f.case,
                        "shrink_steps": f.shrink_steps,
                    }
                    for f in outcome["failures"]
                ],
            }
        )
    summary = {
        "schema": "repro.fuzz/1",
        "seed": seed,
        "smoke": smoke,
        "rounds": rounds,
        "properties": results,
        "total_cases": sum(r["cases"] for r in results),
        "total_failures": total_failures,
    }
    summary["digest"] = digest_of(summary)
    return summary


def format_summary(summary: Dict[str, Any]) -> str:
    lines = [
        f"{'property':<20} {'cases':>6} {'failures':>9}",
    ]
    for r in summary["properties"]:
        lines.append(
            f"{r['property']:<20} {r['cases']:>6} {len(r['failures']):>9}"
        )
        for f in r["failures"]:
            lines.append(f"    FAIL ({f['shrink_steps']} shrinks): "
                         f"{f['message']}")
            lines.append(f"         case: {json.dumps(f['case'])[:160]}")
    lines.append(
        f"\n{summary['total_cases']} cases, "
        f"{summary['total_failures']} failures; "
        f"digest {summary['digest'][:16]}"
    )
    return "\n".join(lines)
