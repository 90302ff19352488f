"""Shared library objects: a name plus an exported symbol table."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional


@dataclass
class Symbol:
    """One exported function."""

    name: str
    fn: Callable[..., Any]
    library: str = ""

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.fn(*args, **kwargs)


@dataclass
class SharedLibrary:
    """A loadable library: ``soname`` plus exported symbols."""

    soname: str
    symbols: Dict[str, Symbol] = field(default_factory=dict)

    def export(self, name: str, fn: Callable[..., Any]) -> Symbol:
        if name in self.symbols:
            raise ValueError(f"{self.soname}: duplicate export {name!r}")
        sym = Symbol(name=name, fn=fn, library=self.soname)
        self.symbols[name] = sym
        return sym

    def lookup(self, name: str) -> Optional[Symbol]:
        return self.symbols.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.symbols

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SharedLibrary {self.soname} ({len(self.symbols)} syms)>"
