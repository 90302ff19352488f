"""Merging per-shard observability banks into one fleet-level view.

Each shard of a partitioned fleet run owns a private
:class:`~repro.obs.registry.MetricsRegistry` and
:class:`~repro.obs.spans.SpanRecorder`; after the run the coordinator
merges their pickled snapshots post-hoc.  Merging is deterministic —
inputs are consumed in shard order, keys come out sorted — so merged
banks participate in the same byte-identity digest checks the fleet
report does.

Merge semantics per instrument:

* **counters** — summed (totals are additive across shards);
* **gauges** — high-water merge (max), since a last-written value has no
  meaningful cross-shard "last";
* **histograms** — ``count``/``mean``/``min``/``max`` merge exactly;
  ``p50``/``p95``/``p99`` are count-weighted means of the per-shard
  percentiles, an approximation (exact percentile merge needs the raw
  reservoirs, which stay shard-local by design) clamped monotone into
  ``[min, max]`` — good enough for dashboards, clearly labeled by
  ``"approx": true``;
* **span banks** — per-category and per-name counts summed, along with
  totals and drops;
* **exemplars** — per-shard exemplar lists are re-offered into one
  bounded reservoir in sorted ``(shard, session)`` order, so the merged
  tail exemplars are invariant to the order shards came back in.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence

from repro.obs.causal import DEFAULT_EXEMPLARS, ExemplarReservoir
from repro.obs.spans import SpanRecorder


def merge_metric_snapshots(
    snapshots: Sequence[Mapping[str, Any]],
) -> Dict[str, Any]:
    """Fold per-shard ``MetricsRegistry.snapshot()`` dicts into one."""
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    merged_hists: Dict[str, List[Mapping[str, float]]] = {}
    for snap in snapshots:
        for key, value in snap.get("counters", {}).items():
            counters[key] = round(counters.get(key, 0.0) + value, 4)
        for key, value in snap.get("gauges", {}).items():
            gauges[key] = max(gauges.get(key, float("-inf")), value)
        for key, summary in snap.get("histograms", {}).items():
            merged_hists.setdefault(key, []).append(summary)
    histograms: Dict[str, Dict[str, Any]] = {}
    for key in sorted(merged_hists):
        histograms[key] = _merge_histogram_summaries(merged_hists[key])
    return {
        "counters": {k: counters[k] for k in sorted(counters)},
        "gauges": {k: round(gauges[k], 4) for k in sorted(gauges)},
        "histograms": histograms,
    }


def _merge_histogram_summaries(
    summaries: Sequence[Mapping[str, float]],
) -> Dict[str, Any]:
    populated = [s for s in summaries if s.get("count")]
    if not populated:
        return {
            "count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
            "min": 0.0, "max": 0.0, "approx": True,
        }
    total = sum(s["count"] for s in populated)
    merged: Dict[str, Any] = {
        "count": int(total),
        "mean": round(
            sum(s["mean"] * s["count"] for s in populated) / total, 4
        ),
        "min": round(min(s["min"] for s in populated), 4),
        "max": round(max(s["max"] for s in populated), 4),
        "approx": True,
    }
    # Count-weighted means of per-shard percentiles can come out
    # non-monotone when a skewed shard reports a degenerate summary
    # (reservoir decimation can leave p99 below p50 on tiny counts).
    # Clamp each quantile into [previous quantile, true max] so the
    # merged summary always satisfies min <= p50 <= p95 <= p99 <= max;
    # min/max stay the exact extremes across shards.
    floor = merged["min"]
    for q in ("p50", "p95", "p99"):
        weighted = sum(s[q] * s["count"] for s in populated) / total
        clamped = min(max(weighted, floor), merged["max"])
        merged[q] = round(clamped, 4)
        floor = clamped
    return merged


def span_bank(recorder: SpanRecorder) -> Dict[str, Any]:
    """Compact, picklable summary of one shard's span ring.

    Raw spans stay shard-local (a 1000-session sweep emits millions);
    the bank carries what fleet-level reporting needs: how many spans of
    which kind, and how many the bounded ring had to drop.
    """
    by_category: Dict[str, int] = {}
    by_name: Dict[str, int] = {}
    for span in recorder.spans:
        by_category[span.category] = by_category.get(span.category, 0) + 1
        key = span.qualified_name
        by_name[key] = by_name.get(key, 0) + 1
    return {
        "total": len(recorder.spans),
        "dropped": recorder.dropped,
        "by_category": {k: by_category[k] for k in sorted(by_category)},
        "by_name": {k: by_name[k] for k in sorted(by_name)},
    }


def merge_exemplars(
    parts: Sequence[Mapping[str, Any]], bound: int = DEFAULT_EXEMPLARS
) -> List[Dict[str, Any]]:
    """Merge per-shard exemplar lists into one bounded reservoir.

    Each part is ``{"shard": int, "session": str, "exemplars": [...]}``
    where the exemplar list is a :meth:`Histogram.exemplar_summary` /
    :meth:`ExemplarReservoir.exemplars` dump.  Parts are consumed in
    sorted ``(shard, session)`` order so the merged tail is a pure
    function of the per-shard contents — worker count and completion
    order cannot change which trace ids survive.
    """
    reservoir = ExemplarReservoir(bound=bound)
    ordered = sorted(
        parts, key=lambda p: (p.get("shard", 0), p.get("session", ""))
    )
    for part in ordered:
        for exemplar in part.get("exemplars", ()):
            reservoir.offer(exemplar["value"], exemplar["trace_id"])
    return reservoir.exemplars()


def merge_span_banks(banks: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Sum per-shard span banks into the fleet-wide bank."""
    by_category: Dict[str, int] = {}
    by_name: Dict[str, int] = {}
    total = 0
    dropped = 0
    for bank in banks:
        total += bank.get("total", 0)
        dropped += bank.get("dropped", 0)
        for key, count in bank.get("by_category", {}).items():
            by_category[key] = by_category.get(key, 0) + count
        for key, count in bank.get("by_name", {}).items():
            by_name[key] = by_name.get(key, 0) + count
    return {
        "total": total,
        "dropped": dropped,
        "by_category": {k: by_category[k] for k in sorted(by_category)},
        "by_name": {k: by_name[k] for k in sorted(by_name)},
    }
