"""The command-stream egress pipeline: resolve -> cache -> compress.

This is the per-frame data path on the user device (§IV-B + §V-A):
intercepted commands are resolved (deferred vertex pointers held until
the draw that reads them), repeats are replaced by LRU cache references,
only misses are serialized to wire bytes, and the residue is
LZ4-compressed.  The pipeline reports exact byte counts at each stage so
the traffic-reduction experiment (C1) can attribute savings to each
mechanism, and the ablation benches can disable stages independently.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from operator import is_
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.codec.command_cache import CacheEntry, CachePair
from repro.codec.fusion import FusionStats, fuse_commands
from repro.codec.lz77 import compress
from repro.core import costs
from repro.gles.commands import GLCommand
from repro.gles.serialization import CommandSerializer, serialize_command
from repro.obs.causal import TRACE_WIRE_BYTES, TraceContext
from repro.obs.spans import OpenSpan, SpanRecorder


# Replay-hit frame framing: 2-byte marker + 8-byte interval address +
# 8-byte expected stream digest + 1-byte dynamics-variant index + u16
# patch length.  The header does not grow with interval length — that is
# the whole point of the fast path — so only the patch portion is
# subject to nominal-stream scaling.
REPLAY_HIT_MARKER = b"\xCA\xFD"
REPLAY_HEADER_BYTES = 2 + 8 + 8 + 1 + 2

#: frame templates one pipeline keeps (oldest dropped first)
FRAME_TEMPLATE_LIMIT = 128
#: distinct compressor inputs one pipeline remembers (least recent dropped)
COMPRESS_MEMO_LIMIT = 64
#: LZ77 match-finder effort: candidate matches tried per position
LZ77_MAX_CHAIN = 8


class FrameTemplate(NamedTuple):
    """One frame's resolve and cache outcome, replayable while it holds.

    Recorded for a frame that starts and ends with no deferred pointer
    held.  ``commands`` keeps the frame's command objects alive, so no
    other object can take one of their ``id``s while the template lives.
    ``entries`` are the sender's cache entries for ``keys`` when the frame
    was recorded: while the sender still holds equal entries under every
    key, the frame is all hits and sends exactly ``references``.
    """

    commands: Tuple[GLCommand, ...]
    keys: Tuple[Tuple, ...]
    entries: List[CacheEntry]
    #: deferred pointers the serializer held back (and flushed) in-frame
    deferrals: int
    #: the cached wire bytes of ``entries``, summed
    raw_bytes: int
    #: the joined ``CacheEntry.reference`` bytes of ``entries``
    references: bytes


@dataclass
class PipelineConfig:
    """Stage toggles and parameters."""

    cache_enabled: bool = True
    cache_capacity: int = 4096
    #: command-stream "compilation": dedupe/fuse redundant state setters
    #: before serialization (repro.codec.fusion); off by default so every
    #: pre-planner benchmark byte count is unchanged
    fusion_enabled: bool = False
    compression_enabled: bool = True
    # Long sessions reuse a measured compression ratio instead of running
    # the byte-level compressor on every frame; ``measure_every`` frames the
    # ratio is re-measured on real bytes to track the stream's drift.
    modelled_compression: bool = False
    measure_every: int = 64


@dataclass
class FrameEgress:
    """Byte accounting for one frame's command batch."""

    raw_bytes: int            # serialized, before cache/compression
    after_cache_bytes: int
    wire_bytes: int           # what actually hits the transport
    commands: int
    cache_hits: int
    payload: Optional[bytes] = None
    kind: str = "full"        # "full" | "replay_hit"
    #: commands the fusion pass removed before serialization; callers that
    #: extrapolate per-command costs scale by ``commands + fused_dropped``
    fused_dropped: int = 0
    #: wire-header bytes spent carrying the frame's trace context; kept
    #: separate from ``wire_bytes`` because the header is fixed-size —
    #: scaling it by the nominal/emitted stream ratio (the way the client
    #: scales payload bytes) would silently inflate the accounting
    trace_bytes: int = 0


class CommandPipeline:
    """Stateful egress pipeline for one offload session."""

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        spans: Optional[SpanRecorder] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.config = config or PipelineConfig()
        self.spans = spans
        self.clock = clock
        self.serializer = CommandSerializer()
        self.cache = CachePair(self.config.cache_capacity)
        self._measured_ratio = 0.30     # refreshed by real measurements
        self._have_measurement = False
        self._frames_since_measure = 0
        self.total_raw = 0
        self.total_after_cache = 0
        self.total_wire = 0
        #: wire-header bytes spent on trace contexts across the session;
        #: included in ``total_wire`` (headers really travel on the uplink)
        self.total_trace = 0
        self.frames = 0
        self.fusion_stats = FusionStats()
        #: frame templates keyed on the ``id``s of a frame's commands
        self._templates: Dict[Tuple[int, ...], FrameTemplate] = {}
        self.template_hits = 0
        self._compressed: "OrderedDict[bytes, bytes]" = OrderedDict()

    def process_frame(
        self,
        commands: List[GLCommand],
        frame_id: Optional[int] = None,
        parent: Optional[OpenSpan] = None,
        replay_patch: Optional[bytes] = None,
        replay_digest: str = "",
        replay_expect: str = "",
        replay_variant: int = 0,
        trace: Optional[TraceContext] = None,
    ) -> FrameEgress:
        """Run one frame's command batch through the pipeline.

        With ``replay_patch`` set the frame travels as a replay hit: the
        serializer/cache/compressor are bypassed and the wire carries only
        the interval address, the expected stream digest, and the
        dynamic-delta patch (see :mod:`repro.replay`).

        With ``trace`` set the frame carries its causal
        :class:`~repro.obs.causal.TraceContext` in the wire header —
        :data:`~repro.obs.causal.TRACE_WIRE_BYTES` extra bytes, reported
        in ``FrameEgress.trace_bytes`` and charged to the uplink totals.
        """
        if replay_patch is not None:
            return self._emit_replay_hit(
                replay_patch, replay_digest, replay_expect, replay_variant,
                frame_id, parent, trace,
            )
        fused_dropped = 0
        ident = None
        if self.config.fusion_enabled:
            commands, fstats = fuse_commands(commands)
            fused_dropped = fstats.dropped
            self.fusion_stats.merge(fstats)
        elif (
            self.config.cache_enabled
            and commands
            and not self.serializer.pending_deferred
        ):
            # A frame of the very command objects of a recorded frame
            # resolves to the same keys; when the sender still holds the
            # same entries, its cache outcome is the recorded one.
            ident = tuple(map(id, commands))
            template = self._templates.get(ident)
            if (
                template is not None
                and all(map(is_, template.commands, commands))
                and list(map(self.cache.sender._entries.get, template.keys))
                == template.entries
            ):
                return self._finish(
                    self._replay_template(template),
                    cache_hits=len(template.keys),
                    raw_bytes=template.raw_bytes,
                    commands=len(template.keys),
                    fused_dropped=0,
                    frame_id=frame_id, parent=parent, trace=trace,
                )
        serializer = self.serializer
        deferrals = serializer.deferrals
        resolve = serializer.resolve
        resolved: List[GLCommand] = []
        for cmd in commands:
            resolved.extend(resolve(cmd))

        # Each resolved command is keyed by itself and serialized only on
        # a cache miss; a hit counts the cached wire as raw bytes.
        raw_bytes = 0
        cache_hits = 0
        batch = bytearray()
        if self.config.cache_enabled:
            encode = self.cache.encode
            keys = [cmd.key() for cmd in resolved]
            for key, cmd in zip(keys, resolved):
                wire, sent, hit = encode(key, serialize_command, cmd)
                raw_bytes += len(wire)
                cache_hits += hit
                batch += sent
            if ident is not None and not serializer.pending_deferred:
                self._record_template(
                    ident, commands, keys, serializer.deferrals - deferrals
                )
        else:
            for cmd in resolved:
                batch += serialize_command(cmd)
            raw_bytes = len(batch)
        return self._finish(
            batch, cache_hits, raw_bytes, len(resolved), fused_dropped,
            frame_id, parent, trace,
        )

    def _record_template(
        self,
        ident: Tuple[int, ...],
        commands: List[GLCommand],
        keys: List[Tuple],
        deferrals: int,
    ) -> None:
        entries = list(map(self.cache.sender._entries.get, keys))
        if None in entries:
            return  # a key evicted in-frame; the next sighting records
        templates = self._templates
        templates.pop(ident, None)
        if len(templates) >= FRAME_TEMPLATE_LIMIT:
            del templates[next(iter(templates))]
        templates[ident] = FrameTemplate(
            commands=tuple(commands),
            keys=tuple(keys),
            entries=entries,
            deferrals=deferrals,
            raw_bytes=sum(len(entry.wire) for entry in entries),
            references=b"".join(entry.reference for entry in entries),
        )

    def _replay_template(self, template: FrameTemplate) -> bytes:
        """Apply a template hit: the serializer's deferral count, then
        per key the sender and receiver recency and hit counts, exactly as
        resolving and ``CachePair.encode`` would."""
        self.serializer.deferrals += template.deferrals
        self.template_hits += 1
        sender, receiver = self.cache.sender, self.cache.receiver
        move_sender = sender._entries.move_to_end
        move_receiver = receiver._entries.move_to_end
        keys = template.keys
        for key in keys:
            move_sender(key)
            try:
                move_receiver(key)
            except KeyError:
                done = keys.index(key)
                sender.stats.hits += done + 1
                receiver.stats.hits += done
                receiver.stats.misses += 1
                raise RuntimeError(
                    "cache desync: sender hit but receiver miss for "
                    f"{key[0]}"
                ) from None
        sender.stats.hits += len(keys)
        receiver.stats.hits += len(keys)
        return template.references

    def _compress(self, data: bytes) -> bytes:
        """``compress(data, max_chain=LZ77_MAX_CHAIN)`` through a bounded
        memo: the compressor is a pure function of its input bytes."""
        memo = self._compressed
        out = memo.get(data)
        if out is None:
            out = compress(data, max_chain=LZ77_MAX_CHAIN)
            memo[data] = out
            if len(memo) > COMPRESS_MEMO_LIMIT:
                memo.popitem(last=False)
        else:
            memo.move_to_end(data)
        return out

    def _finish(
        self,
        batch: bytes,
        cache_hits: int,
        raw_bytes: int,
        commands: int,
        fused_dropped: int,
        frame_id: Optional[int],
        parent: Optional[OpenSpan],
        trace: Optional[TraceContext],
    ) -> FrameEgress:
        """Compress a frame's post-cache batch, account and report it."""
        after_cache = len(batch)
        if self.config.compression_enabled:
            if self.config.modelled_compression:
                self._frames_since_measure += 1
                due = (
                    self._frames_since_measure >= self.config.measure_every
                    or not self._have_measurement
                )
                if due and batch:
                    compressed = self._compress(bytes(batch))
                    sample = len(compressed) / max(1, len(batch))
                    if self._have_measurement:
                        # EWMA: single frames vary a lot (an upload-heavy
                        # batch compresses far worse than a reference-heavy
                        # one).
                        self._measured_ratio = (
                            0.6 * self._measured_ratio + 0.4 * sample
                        )
                    else:
                        self._measured_ratio = sample
                        self._have_measurement = True
                    self._frames_since_measure = 0
                    # This batch's cost is known exactly, not modelled.
                    wire_bytes = len(compressed)
                else:
                    wire_bytes = max(
                        1, int(len(batch) * self._measured_ratio)
                    )
                payload = None
            else:
                payload = self._compress(bytes(batch))
                wire_bytes = len(payload)
        else:
            payload = bytes(batch)
            wire_bytes = len(batch)

        trace_bytes = TRACE_WIRE_BYTES if trace is not None else 0
        self.total_raw += raw_bytes
        self.total_after_cache += after_cache
        self.total_wire += wire_bytes + trace_bytes
        self.total_trace += trace_bytes
        self.frames += 1
        if self.spans is not None:
            # The engine's CPU stage already charged this serialization
            # cost in sim time; the span backdates over that interval so
            # the breakdown attributes it to the encode stage.
            now = self.clock() if self.clock is not None else 0.0
            cost_ms = commands * costs.SERIALIZE_US_PER_COMMAND / 1000.0
            extra = {"trace_id": trace.trace_id} if trace is not None else {}
            self.spans.add(
                "codec", "encode", now - cost_ms, now,
                track="client", frame_id=frame_id,
                parent=parent.qualified_name if parent is not None else None,
                depth=parent.depth + 1 if parent is not None else 0,
                raw_bytes=raw_bytes, wire_bytes=wire_bytes,
                cache_hits=cache_hits, **extra,
            )
        return FrameEgress(
            raw_bytes=raw_bytes,
            after_cache_bytes=after_cache,
            wire_bytes=wire_bytes,
            commands=commands,
            cache_hits=cache_hits,
            payload=payload,
            fused_dropped=fused_dropped,
            trace_bytes=trace_bytes,
        )

    def _emit_replay_hit(
        self,
        patch: bytes,
        digest: str,
        expect: str,
        variant: int,
        frame_id: Optional[int],
        parent: Optional[OpenSpan],
        trace: Optional[TraceContext] = None,
    ) -> FrameEgress:
        header = (
            REPLAY_HIT_MARKER
            + bytes.fromhex(digest)[:8].ljust(8, b"\x00")
            + bytes.fromhex(expect)[:8].ljust(8, b"\x00")
            + (variant & 0xFF).to_bytes(1, "little")
            + len(patch).to_bytes(2, "little")
        )
        if trace is not None:
            header = trace.to_wire() + header
        trace_bytes = TRACE_WIRE_BYTES if trace is not None else 0
        wire_bytes = len(header) + len(patch) - trace_bytes
        self.total_wire += wire_bytes + trace_bytes
        self.total_trace += trace_bytes
        self.frames += 1
        if self.spans is not None:
            now = self.clock() if self.clock is not None else 0.0
            extra = {"trace_id": trace.trace_id} if trace is not None else {}
            self.spans.add(
                "codec", "encode", now, now,
                track="client", frame_id=frame_id,
                parent=parent.qualified_name if parent is not None else None,
                depth=parent.depth + 1 if parent is not None else 0,
                raw_bytes=0, wire_bytes=wire_bytes,
                cache_hits=0, kind="replay_hit", **extra,
            )
        return FrameEgress(
            raw_bytes=0,
            after_cache_bytes=wire_bytes,
            wire_bytes=wire_bytes,
            commands=0,
            cache_hits=0,
            payload=header + patch,
            kind="replay_hit",
            trace_bytes=trace_bytes,
        )

    @property
    def overall_reduction(self) -> float:
        """1 - wire/raw over the whole session."""
        if self.total_raw == 0:
            return 0.0
        return 1.0 - self.total_wire / self.total_raw
