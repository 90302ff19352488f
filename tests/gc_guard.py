"""Garbage-guard helpers: does a finished run free itself by refcounting?

A run that leaves no reference cycle behind is freed the moment its
results are dropped, so with the cyclic collector off a collection
afterwards finds nothing.  One cycle left anywhere holds everything it
reaches as garbage for the collector to walk.

:func:`garbage_left_by` runs a case twice and returns what the second run
left to the collector; :func:`describe_first_cycle` names the edges of the
first cycle in it, so a failing guard says which reference to drop.
"""

import gc
import types
from typing import Callable, Dict, List, Sequence

#: edges listed in a failure message at most
MAX_EDGES = 40


def garbage_left_by(run: Callable[[], object]) -> List[object]:
    """Objects the cyclic collector frees after ``run()`` with it off.

    ``run`` runs once to warm lazy imports and module caches, then again
    with the collector disabled; what a collection finds after the second
    run is returned (saved by ``gc.DEBUG_SAVEALL``, so it can be
    described).
    """
    run()
    gc.collect()
    flags = gc.get_debug()
    gc.disable()
    try:
        run()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = list(gc.garbage)
        gc.garbage.clear()
        return garbage
    finally:
        gc.set_debug(flags)
        gc.enable()


def assert_frees_itself(run: Callable[[], object]) -> None:
    """Fail, naming the first cycle, if ``run`` leaves cyclic garbage."""
    garbage = garbage_left_by(run)
    assert not garbage, (
        f"{len(garbage)} objects of cyclic garbage; first cycle:\n"
        + describe_first_cycle(garbage)
    )


def describe_first_cycle(garbage: Sequence[object]) -> str:
    """The edges of the first cyclic component of ``garbage``, one a line.

    Each line reads ``Owner.attr -> Target`` (``Owner[key]`` for a dict or
    sequence slot).  An instance's ``__dict__`` is folded into its owner,
    so an attribute edge names the attribute.  A shortest cycle through
    the component comes first, so the opening lines read as one loop.
    """
    component = _first_component(garbage)
    if not component:
        return "(no cycle found)"
    members = {id(obj) for obj in component}
    edges = list({
        (id(owner), id(target)): (owner, target)
        for owner in component
        for target in _referents(owner)
        if id(target) in members
    }.values())
    loop = _shortest_cycle(component[-1], edges)
    in_loop = {(id(a), id(b)) for a, b in loop}
    ordered = loop + [
        (a, b) for a, b in edges if (id(a), id(b)) not in in_loop
    ]
    lines = [f"{len(component)} objects, {len(edges)} edges:"] + [
        f"  {_type(owner)}{label} -> {_type(target)}"
        for owner, target in ordered
        for label in _labels(owner, target)
    ]
    more = len(lines) - 1 - MAX_EDGES
    lines = lines[:1 + MAX_EDGES] + ([f"  ... {more} more"] if more > 0 else [])
    return "\n".join(lines)


def _shortest_cycle(start: object, edges) -> list:
    """The edges of a shortest cycle from ``start`` back to itself."""
    out: Dict[int, List[object]] = {}
    for owner, target in edges:
        out.setdefault(id(owner), []).append(target)
    came_from: Dict[int, object] = {}
    frontier = [start]
    while frontier:
        following = []
        for node in frontier:
            for target in out.get(id(node), ()):
                if id(target) in came_from:
                    continue
                came_from[id(target)] = node
                if target is start:
                    loop = []
                    while True:
                        owner = came_from[id(target)]
                        loop.append((owner, target))
                        if owner is start:
                            return loop[::-1]
                        target = owner
                following.append(target)
        frontier = following
    return []


def _type(obj: object) -> str:
    return type(obj).__qualname__


def _instance_dicts(garbage: Sequence[object]) -> Dict[int, object]:
    """``id(obj.__dict__) -> obj`` for every instance in ``garbage``."""
    owners = {}
    for obj in garbage:
        attrs = getattr(obj, "__dict__", None)
        if type(attrs) is dict and not isinstance(obj, type):
            owners[id(attrs)] = obj
    return owners


def _referents(obj: object) -> List[object]:
    """``obj``'s references, with its ``__dict__`` values folded in."""
    attrs = getattr(obj, "__dict__", None)
    out = [
        ref for ref in gc.get_referents(obj) if ref is not attrs
    ]
    if type(attrs) is dict and not isinstance(obj, type):
        out.extend(attrs.values())
    return out


def _labels(owner: object, target: object) -> List[str]:
    """How ``owner`` refers to ``target``: attribute, key or slot names."""
    labels = []
    if isinstance(owner, dict):
        labels = [f"[{key!r}]" for key, value in owner.items()
                  if value is target or key is target]
    elif isinstance(owner, (list, tuple)):
        labels = [f"[{i}]" for i, value in enumerate(owner) if value is target]
    elif isinstance(owner, types.MethodType):
        labels = [f".{name}" for name in ("__self__", "__func__")
                  if getattr(owner, name) is target]
    elif isinstance(owner, types.FunctionType):
        labels = [f".{name}" for name in ("__closure__", "__defaults__",
                                          "__globals__", "__dict__")
                  if getattr(owner, name) is target]
    elif isinstance(owner, types.CellType):
        labels = [".cell_contents"]
    else:
        attrs = getattr(owner, "__dict__", None)
        if type(attrs) is dict:
            labels = [f".{name}" for name, value in attrs.items()
                      if value is target]
        for cls in type(owner).__mro__:
            for name in getattr(cls, "__slots__", ()):
                if getattr(owner, name, None) is target:
                    labels.append(f".{name}")
    return labels or [".?"]


def _first_component(garbage: Sequence[object]) -> List[object]:
    """The first strongly connected component of ``garbage`` that is a
    cycle (more than one object, or one that refers to itself).

    Iterative Tarjan over the reference graph restricted to ``garbage``,
    with instance ``__dict__`` objects folded into their instances.
    """
    folded = _instance_dicts(garbage)
    nodes = [obj for obj in garbage if id(obj) not in folded]
    by_id = {id(obj): obj for obj in nodes}
    edges = {
        id(obj): [id(ref) for ref in _referents(obj) if id(ref) in by_id]
        for obj in nodes
    }
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack = set()
    stack: List[int] = []
    for root in by_id:
        if root in index:
            continue
        work = [(root, iter(edges[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(edges[succ])))
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1 or node in edges[node]:
                        return [by_id[member] for member in component]
    return []
