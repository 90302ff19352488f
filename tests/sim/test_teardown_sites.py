"""Every runner in ``src`` names the garbage guard that covers it.

A simulator that is not torn down is cyclic garbage (its span clock is a
closure over it), and so is every component wired to it: its breakers
(``Simulator.on_teardown``) run only at teardown.  So each site under
``src`` that builds a ``Simulator`` maps to a case of one of the two
garbage guards, which runs that site and fails on any cycle left.  A new
site fails here until it is reviewed and mapped; a site whose kernel
goes to ``run_fleet_point`` or ``FleetRun`` maps to the fleet guard.
The check reads the source tree and edits nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set

import pytest

from tests.core import test_session_teardown as session_guard
from tests.fleet import test_teardown as fleet_guard

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
SESSION = "tests/core/test_session_teardown.py"
FLEET = "tests/fleet/test_teardown.py"

#: ``path under repro:enclosing qualname`` -> ``(guard, case)``; one key
#: per ``Simulator(...)`` call
SITES = {
    "apps/monkeyrunner.py:InputScript.record_from_generator":
        (SESSION, "recorded_script"),
    "check/fuzz.py:TransportDelivery.check": (SESSION, "fuzzed_transport"),
    "core/adaptive.py:discover_services": (SESSION, "adaptive_offload"),
    "core/multiuser.py:run_multiuser_session": (SESSION, "multiuser"),
    "core/session.py:run_local_session": (SESSION, "local"),
    "core/session.py:run_offload_session": (SESSION, "offload_default"),
    "experiments/capacity.py:run_capacity_point": (FLEET, "capacity_point"),
    "experiments/fleet.py:run_fleet_point": (FLEET, "fleet_point"),
    "experiments/profiling.py:bench_fleet": (FLEET, "fleet_point"),
    "experiments/replay.py:run_replay_fleet.wave": (FLEET, "replay_wave"),
    "experiments/slo.py:run_slo_fleet": (FLEET, "fleet_point"),
    "fleet/runner.py:ShardWorker.__init__": (FLEET, "one_shard"),
}


def simulator_calls(tree: ast.AST, scope: str = "") -> Iterator[str]:
    """The enclosing qualname of each ``Simulator(...)`` call in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            yield from simulator_calls(
                node, f"{scope}.{node.name}" if scope else node.name
            )
            continue
        if isinstance(node, ast.Call) and "Simulator" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            yield scope
        yield from simulator_calls(node, scope)


def sites() -> List[str]:
    return sorted(
        f"{path.relative_to(SRC).as_posix()}:{scope}"
        for path in SRC.rglob("*.py")
        for scope in simulator_calls(ast.parse(path.read_text()))
    )


def guard_cases(test) -> Set[str]:
    """The case names of a guard's parametrized test."""
    (mark,) = [m for m in test.pytestmark if m.name == "parametrize"]
    return {run.__name__ for run in mark.args[1]}


def test_every_simulator_site_is_mapped():
    found = sites()
    assert found == sorted(SITES), (
        "a Simulator site changed; tear its kernel down, then map it to "
        f"the guard case that runs it.\nunmapped: "
        f"{sorted(set(found) - set(SITES))}\ngone: "
        f"{sorted(set(SITES) - set(found))}"
    )


@pytest.mark.parametrize("site", sorted(SITES))
def test_each_site_names_a_guard_case(site):
    guard, case = SITES[site]
    cases = guard_cases(
        session_guard.test_a_finished_session_leaves_no_cyclic_garbage
        if guard == SESSION
        else fleet_guard.test_a_finished_run_leaves_no_cyclic_garbage
    )
    assert case in cases, f"{site}: {guard} has no case {case!r}"
