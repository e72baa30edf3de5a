"""Seeded randomness helpers.

Everything random in this reproduction flows through
:class:`numpy.random.Generator` objects seeded from a single experiment seed,
so every pipeline run is exactly reproducible.  The Shingling heuristic's
random trials are parameterized by hash pairs ``<A_j, B_j>`` (Section III-B of
the paper); :func:`make_hash_pairs` draws a fixed set of ``c`` such pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
# NumPy loads ``np.random`` on first access; import it with this module so
# the first clustering call (which draws its hash pairs here) does not.
import numpy.random  # noqa: F401

from repro.util.primes import DEFAULT_PRIME


@dataclass(frozen=True)
class HashPair:
    """One min-wise hash function ``h(v) = (a*v + b) mod prime``.

    ``a`` is kept nonzero modulo ``prime`` so that ``h`` is a bijection on
    ``[0, prime)`` — i.e. a genuine random permutation of vertex ids, which is
    what gives the min-wise independence guarantee of Broder et al.
    """

    a: int
    b: int
    prime: int = DEFAULT_PRIME

    def __post_init__(self) -> None:
        if not (0 < self.a < self.prime):
            raise ValueError(f"a must be in (0, prime); got a={self.a}")
        if not (0 <= self.b < self.prime):
            raise ValueError(f"b must be in [0, prime); got b={self.b}")

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Vectorized ``(a*v + b) mod prime`` over an integer array."""
        v = np.asarray(values, dtype=np.uint64)
        return (np.uint64(self.a) * v + np.uint64(self.b)) % np.uint64(self.prime)

    def apply_scalar(self, value: int) -> int:
        """Scalar hash, used by the pure-Python serial reference path."""
        return (self.a * value + self.b) % self.prime


def make_hash_pairs(c: int, rng: np.random.Generator, prime: int = DEFAULT_PRIME) -> list[HashPair]:
    """Draw ``c`` independent hash pairs ``<A_j, B_j>``, j in [1, c].

    The paper fixes one set of pairs per shingling pass so that every
    adjacency list sees the same ``c`` permutations.
    """
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
    a_vals = rng.integers(1, prime, size=c, dtype=np.int64)
    b_vals = rng.integers(0, prime, size=c, dtype=np.int64)
    return [HashPair(int(a), int(b), prime) for a, b in zip(a_vals, b_vals)]


def hash_pair_arrays(pairs: Sequence[HashPair]) -> tuple[np.ndarray, np.ndarray, int]:
    """Return ``(A, B, prime)`` arrays for a batch of hash pairs.

    Used by the device kernels, which want flat arrays rather than objects.
    All pairs must share the same prime.
    """
    if not pairs:
        raise ValueError("need at least one hash pair")
    primes = {p.prime for p in pairs}
    if len(primes) != 1:
        raise ValueError(f"hash pairs disagree on prime: {sorted(primes)}")
    a = np.array([p.a for p in pairs], dtype=np.uint64)
    b = np.array([p.b for p in pairs], dtype=np.uint64)
    return a, b, primes.pop()


def spawn_rng(seed: int | np.random.Generator | None, stream: str = "") -> np.random.Generator:
    """Create a generator from a seed, deriving independent named streams.

    ``spawn_rng(seed, "pass1")`` and ``spawn_rng(seed, "pass2")`` yield
    independent streams for the same experiment seed, so the two shingling
    passes use unrelated hash families (as the paper requires: shingles from
    different trials/passes must not get mixed).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if stream:
        # Fold the stream name into the entropy deterministically.
        name_entropy = [ord(ch) for ch in stream]
        ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(name_entropy))
        return np.random.default_rng(ss)
    return np.random.default_rng(seed)
