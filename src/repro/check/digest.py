"""Per-frame command-stream digests: the record-and-replay fidelity check.

The offloading design's core promise is that a replayed command stream is
indistinguishable from local execution.  To make that testable the engine
digests every frame's command batch at *issue* time, and each execution
site (a service node's GL replay, or the local backend when it executes
commands) digests the batch it actually ran.  A :class:`DigestLog` holds
both sides keyed by frame id:

* ``issued[frame_id] != executed[frame_id]`` — the pipeline mutated,
  dropped or misrouted commands between interception and replay;
* a frame executed with no issue record — phantom work (duplication, a
  stale retransmission replayed twice);
* comparing two runs' ``stream()`` — the differential-replay equality
  check (local vs offloaded, or two identically-seeded offload runs).

Digests are content digests over the commands' stable keys (name plus
frozen arguments, the same identity the LRU command cache deduplicates
on), so two command lists digest equal iff a GL replayer would execute
the same sequence.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Tuple

from repro.gles.commands import GLCommand


def command_fragment(cmd) -> bytes:
    """The bytes one command contributes to a digest.

    Keys commands by ``cmd.key()`` (name + frozen args — floats included
    verbatim, so any numeric drift between runs shows up), falling back to
    ``repr`` for foreign objects in tests.  A plain :class:`GLCommand` is
    immutable and computes its key once, so its fragment is computed once
    too and kept on the command.
    """
    if type(cmd) is GLCommand:
        fragment = cmd._fragment
        if fragment is None:
            fragment = repr(cmd.key()).encode("utf-8") + b"\x00"
            object.__setattr__(cmd, "_fragment", fragment)
        return fragment
    key = cmd.key() if hasattr(cmd, "key") else cmd
    return repr(key).encode("utf-8") + b"\x00"


def command_digest(commands: Iterable) -> str:
    """Stable content digest of one frame's command sequence: blake2b
    over each command's :func:`command_fragment`, in order."""
    h = hashlib.blake2b(digest_size=16)
    for cmd in commands:
        h.update(command_fragment(cmd))
    return h.hexdigest()


class IntervalDigest:
    """Incremental :func:`command_digest` over a growing command interval.

    The replay recorder digests a rolling window of the stream; re-hashing
    the whole window per frame is quadratic in interval length, so this
    streams the same blake2b the batch digest uses.  ``hexdigest()`` is
    non-destructive (it hashes a copy), so the digest after *k* commands
    equals ``command_digest`` of those first *k* commands — the property
    the test suite pins down on every prefix.
    """

    def __init__(self) -> None:
        self._h = hashlib.blake2b(digest_size=16)
        self.count = 0

    def update(self, cmd) -> "IntervalDigest":
        """Feed one command (or a raw key, for foreign test objects)."""
        self._h.update(command_fragment(cmd))
        self.count += 1
        return self

    def update_sequence(self, commands: Iterable) -> "IntervalDigest":
        for cmd in commands:
            self.update(cmd)
        return self

    def hexdigest(self) -> str:
        return self._h.copy().hexdigest()

    def copy(self) -> "IntervalDigest":
        clone = IntervalDigest.__new__(IntervalDigest)
        clone._h = self._h.copy()
        clone.count = self.count
        return clone


class DigestLog:
    """Issue-side and execution-side digests for one session.

    Both sides digest the same few dozen command objects frame after
    frame; each reads the fragment its command keeps, so a digest costs
    one blake2b over the joined fragments.  Digests equal
    :func:`command_digest`.
    """

    def __init__(self) -> None:
        #: frame_id -> digest recorded by the engine at issue time
        self.issued: Dict[int, str] = {}
        #: frame_id -> [(site, digest)] recorded at each execution
        self.executed: Dict[int, List[Tuple[str, str]]] = {}

    def digest(self, commands: Iterable) -> str:
        """:func:`command_digest` of ``commands``."""
        return hashlib.blake2b(
            b"".join(map(command_fragment, commands)), digest_size=16
        ).hexdigest()

    # -- recording -----------------------------------------------------------

    def record_issue(self, frame_id: int, commands: Iterable) -> str:
        digest = self.digest(commands)
        self.issued[frame_id] = digest
        return digest

    def record_execution(
        self, frame_id: int, commands: Iterable, site: str = ""
    ) -> str:
        digest = self.digest(commands)
        self.executed.setdefault(frame_id, []).append((site, digest))
        return digest

    # -- queries -------------------------------------------------------------

    def stream(self) -> List[str]:
        """Issue digests in frame order — the replay-comparison sequence."""
        return [self.issued[fid] for fid in sorted(self.issued)]

    def executed_frames(self) -> List[int]:
        return sorted(self.executed)

    def fidelity_mismatches(self) -> List[Dict]:
        """Frames where an execution ran something other than what was issued.

        Each entry names the frame, the execution site, and both digests;
        phantom executions (no issue record at all) are included with
        ``issued=None``.
        """
        out: List[Dict] = []
        for frame_id in sorted(self.executed):
            issued = self.issued.get(frame_id)
            for site, digest in self.executed[frame_id]:
                if issued is None or digest != issued:
                    out.append(
                        {
                            "frame_id": frame_id,
                            "site": site,
                            "issued": issued,
                            "executed": digest,
                        }
                    )
        return out

    def duplicate_executions(self) -> List[int]:
        """Frames replayed more than once at the same site — phantom work.

        A re-dispatch after a node failure legitimately executes a frame on
        a *second* site, so only same-site repeats count.
        """
        out: List[int] = []
        for frame_id, entries in sorted(self.executed.items()):
            sites = [site for site, _ in entries]
            if len(sites) != len(set(sites)):
                out.append(frame_id)
        return out

    def summary(self) -> Dict:
        return {
            "frames_issued": len(self.issued),
            "frames_executed": len(self.executed),
            "fidelity_mismatches": len(self.fidelity_mismatches()),
            "duplicate_executions": len(self.duplicate_executions()),
        }
