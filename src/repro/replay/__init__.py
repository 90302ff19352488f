"""repro.replay — record-once / replay-many offload fast path.

GPUReplay (PAPERS.md, arxiv 2105.05085) shows a recorded, verified GPU
command interval can be replayed from a small cached stack instead of
re-running the full driver pipeline.  Applied to GBooster's offload
pipeline: with millions of users playing the same titles, consecutive
*sessions* issue near-identical per-frame command intervals, so the
dominant bandwidth and server-CPU win is cross-session dedup:

* :mod:`repro.replay.store` — the content-addressed
  :class:`ReplayStore`: recorded intervals keyed by their skeleton digest
  (see :mod:`repro.gles.intervals`), per-title namespaces under a
  fleet-wide :class:`ReplayHub`, LRU + refcount eviction under a byte
  budget, and a generation counter the fleet heartbeats advertise.
* :mod:`repro.replay.session` — the record/verify/replay protocol:
  recording sessions run the full pipeline and deposit intervals; a
  *different* session re-encountering an interval gets it delta-served
  and differentially verified (digest equality between the
  patched reconstruction and the live stream) before promotion; any
  divergence demotes the entry and falls back to the full pipeline.

Recording sessions never serve from their own unverified recordings —
intra-session dedup already belongs to the §V-A LRU command cache; the
replay store exists for the cross-session/cross-device win, and an
unverified self-recording has no second, independent execution to check
against.
"""

from repro.replay.store import (
    RECORDED,
    REPLAY_STORE_BYTES,
    VERIFIED,
    RecordedInterval,
    ReplayHub,
    ReplayStore,
    ReplayStoreStats,
)
from repro.replay.session import (
    ReplayDecision,
    ReplaySession,
    ReplayStats,
    reconstruct_interval,
)

__all__ = [
    "RECORDED",
    "REPLAY_STORE_BYTES",
    "VERIFIED",
    "RecordedInterval",
    "ReplayDecision",
    "ReplayHub",
    "ReplaySession",
    "ReplayStats",
    "ReplayStore",
    "ReplayStoreStats",
    "reconstruct_interval",
]
