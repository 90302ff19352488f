"""Machine-readable session and fleet reports.

``session_report`` flattens a :class:`SessionResult` into plain JSON-able
data for dashboards, regression tracking, or archiving benchmark runs.
``fleet_report`` does the same for a fleet run: it accepts a
:class:`~repro.fleet.controller.FleetController` (or its raw ``report()``
dict) and returns the aggregate with a content digest suitable for
same-seed identity checks.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.obs.digest import digest_of


def session_report(result) -> Dict[str, Any]:
    """A JSON-serializable summary of one session."""
    report: Dict[str, Any] = {
        "app": result.app.short_name,
        "app_name": result.app.name,
        "genre": result.app.genre,
        "mode": result.mode,
        "fps": {
            "median": result.fps.median_fps,
            "stability": result.fps.stability,
            "frame_count": result.fps.frame_count,
            "session_seconds": result.fps.session_seconds,
            "mean_raw_response_ms": result.fps.mean_response_ms,
        },
        "response_time_ms": result.response_time_ms,
        "t_p_ms": result.t_p_ms,
        "energy": {
            "total_j": result.energy.total_j,
            "mean_power_w": result.energy.mean_power_w,
            "components_j": dict(result.energy.components_j),
        },
        "cpu_mean_utilization": result.cpu_mean_utilization,
        "gpu_mean_utilization": result.gpu_mean_utilization,
    }
    if result.switching is not None:
        report["switching"] = {
            "bluetooth_residency": result.switching.bluetooth_residency,
            "switches_to_wifi": result.switching.switches_to_wifi,
            "switches_to_bluetooth": result.switching.switches_to_bluetooth,
            "overload_epochs": result.switching.overload_epochs,
        }
    if result.client_stats is not None:
        stats = result.client_stats
        report["traffic"] = {
            "uplink_bytes": stats.uplink_bytes,
            "downlink_bytes": stats.downlink_bytes,
            "raw_command_bytes": stats.raw_command_bytes,
            "reduction": stats.traffic_reduction(),
        }
    return report


def session_report_json(result, indent: int = 2) -> str:
    return json.dumps(session_report(result), indent=indent, sort_keys=True)


def fleet_report(fleet) -> Dict[str, Any]:
    """A JSON-serializable summary of one fleet run.

    Accepts a ``FleetController`` or the dict its ``report()`` returns.
    The ``digest`` field hashes every other field (sorted-key JSON), so
    two runs with the same seed must produce identical digests.
    """
    report = dict(fleet) if isinstance(fleet, dict) else fleet.report()
    report.pop("digest", None)
    report["digest"] = digest_of(report)
    return report


def fleet_report_json(fleet, indent: int = 2) -> str:
    return json.dumps(fleet_report(fleet), indent=indent, sort_keys=True)
