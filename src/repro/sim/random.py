"""Named, seeded random streams.

Each subsystem draws from its own stream keyed by ``(run_seed, name)`` so
that adding a new consumer of randomness never perturbs the draws seen by an
existing one — the property that makes ablation comparisons meaningful.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


def _derive_seed(run_seed: int, name: str, shard_id: int = 0) -> int:
    """Seed for stream ``name`` — a pure function of its coordinates.

    Derivation depends only on ``(run_seed, shard_id, name)``, never on
    the order streams are created in, so adding a consumer of randomness
    (or creating streams in a different order across shards or runs)
    never perturbs the draws of an existing one.  Shard 0 keeps the
    legacy ``run_seed:name`` keying so a one-shard run reproduces the
    historical single-kernel draws bit for bit.
    """
    if shard_id == 0:
        key = f"{run_seed}:{name}"
    else:
        key = f"{run_seed}:shard{shard_id}:{name}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStream:
    """A deterministic random source for one named subsystem."""

    def __init__(self, run_seed: int, name: str, shard_id: int = 0):
        self.run_seed = run_seed
        self.name = name
        self.shard_id = shard_id
        self._rng = random.Random(_derive_seed(run_seed, name, shard_id))

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return self._rng.uniform(low, high)

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        return self._rng.gauss(mean, std)

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given *mean* (not rate)."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive, got {mean}")
        return self._rng.expovariate(1.0 / mean)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        return self._rng.randint(low, high)

    def random(self) -> float:
        return self._rng.random()

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        return self._rng.sample(seq, k)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def bernoulli(self, p: float) -> bool:
        return self._rng.random() < p

    def bytes(self, n: int) -> bytes:
        return bytes(self._rng.getrandbits(8) for _ in range(n))

    def fork(self, name: str) -> "RandomStream":
        """A child stream, still fully determined by the run seed."""
        return RandomStream(
            self.run_seed, f"{self.name}/{name}", shard_id=self.shard_id
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RandomStream {self.name!r} seed={self.run_seed} "
            f"shard={self.shard_id}>"
        )
