"""The one digest recipe: sha256 over canonical (sorted-key) JSON.

A fleet report, a flight bundle, the fuzz summary and every gated
experiment artifact carry a digest made this way, so two same-seed runs
compare by one string.  It imports nothing from the simulator, so any
layer may use it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def canonical_json(obj: Any) -> str:
    """``obj`` as sorted-key JSON, the form every digest hashes."""
    return json.dumps(obj, sort_keys=True)


def digest_of(obj: Any) -> str:
    """sha256 over the canonical (sorted-key) JSON of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()
