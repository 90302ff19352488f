"""Every config field is a knob something turns.

A field of the four config dataclasses must be set somewhere outside the
module that defines it, to something other than its default, by a keyword
argument or an attribute assignment under ``src``, ``tests``,
``benchmarks``, ``bench`` or ``examples``.  A value that nothing varies
belongs beside its reader as a module constant, not in a config.  The
check matches names, not types, and counts any value that is not a
literal as a change; it reads the source trees and edits nothing.
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import fields
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.apps.engine import EngineConfig
from repro.codec.pipeline import PipelineConfig
from repro.core.config import GBoosterConfig
from repro.fleet.config import FleetConfig

ROOT = Path(__file__).resolve().parents[2]
SEARCHED = ("src", "tests", "benchmarks", "bench", "examples")
CONFIGS = (GBoosterConfig, FleetConfig, PipelineConfig, EngineConfig)


#: stands for a value that is not a literal (a name, a call, an expression)
COMPUTED = object()


def value_of(node: ast.expr) -> object:
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return COMPUTED


def assigned(target: ast.expr, value: object) -> Iterator[Tuple[str, object]]:
    """The (attribute, value) pairs an assignment target sets; an attribute
    unpacked from a tuple gets :data:`COMPUTED`."""
    if isinstance(target, ast.Attribute):
        yield target.attr, value
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from assigned(elt, COMPUTED)
    elif isinstance(target, ast.Starred):
        yield from assigned(target.value, COMPUTED)


def settings(tree: ast.AST) -> Dict[str, List[object]]:
    """Each keyword-argument or assigned-attribute name in ``tree``, with
    the values given to it."""
    pairs: List[Tuple[str, object]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg is not None:
            pairs.append((node.arg, value_of(node.value)))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                pairs.extend(assigned(target, value_of(node.value)))
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            pairs.extend(assigned(node.target, value_of(node.value)))
        elif isinstance(node, ast.AugAssign):
            pairs.extend(assigned(node.target, COMPUTED))
    out: Dict[str, List[object]] = {}
    for name, value in pairs:
        out.setdefault(name, []).append(value)
    return out


def sources() -> Dict[Path, Dict[str, List[object]]]:
    """Each searched source file and what it sets."""
    return {
        path.resolve(): settings(ast.parse(path.read_text()))
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def idle_fields() -> Dict[str, List[str]]:
    """Per config class, the fields that nothing outside the class's own
    module sets to anything but their default."""
    by_file = sources()
    idle = {}
    for cls in CONFIGS:
        home = Path(inspect.getsourcefile(cls)).resolve()
        unset = [
            f.name for f in fields(cls)
            if all(
                value is not COMPUTED and value == f.default
                for path, names in by_file.items() if path != home
                for value in names.get(f.name, ())
            )
        ]
        if unset:
            idle[cls.__name__] = unset
    return idle


def test_the_search_finds_the_sources():
    files = sources()
    assert len(files) > 100
    assert Path(inspect.getsourcefile(GBoosterConfig)).resolve() in files


def test_settings_reads_keywords_and_attribute_targets():
    tree = ast.parse(
        "f(a=1)\nx.b = 'b'\nx.c += 3\nx.d: float = 4.0\n(x.e, y) = 5, 6\n"
        "g = x.h\nx.i.j = None\nf(k=g)\nf(**m)\n"
    )
    assert settings(tree) == {
        "a": [1], "b": ["b"], "c": [COMPUTED], "d": [4.0], "e": [COMPUTED],
        "j": [None], "k": [COMPUTED],
    }


def test_every_config_field_is_set_somewhere_else():
    assert idle_fields() == {}
