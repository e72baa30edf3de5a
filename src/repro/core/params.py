"""Shingling algorithm parameters.

Defaults follow Section III-D of the paper: ``s1=2, c1=200`` for the
first-level shingling and ``s2=2, c2=100`` for the second level, with a fixed
big prime ``P`` for the min-wise hash family.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.util.mixhash import trial_salt
from repro.util.primes import DEFAULT_PRIME, is_probable_prime
from repro.util.rng import HashPair, make_hash_pairs, spawn_rng

REPORT_PARTITION = "partition"
REPORT_OVERLAPPING = "overlapping"

GROUPING_TWO_LEVEL = "two_level"
GROUPING_ONE_SHINGLE = "one_shingle"

KERNEL_SORT = "sort"
KERNEL_FUSED = "fused"

#: Valid ``kernel`` values; every one runs the fused uint32 key path and
#: picks only the device's top-``s`` engine.
KERNELS = (KERNEL_SORT, KERNEL_FUSED)


@dataclass(frozen=True)
class ShinglingParams:
    """Parameters of the two-pass Shingling heuristic.

    Attributes
    ----------
    s1, c1:
        Shingle size and trial count for the first-level pass.
    s2, c2:
        Shingle size and trial count for the second-level pass.
    prime:
        Modulus ``P`` of the min-wise hash family; must be prime and exceed
        every element id, and stay below ~2**31 so products fit in uint64.
    seed:
        Experiment seed; hash pairs for the two passes are drawn from
        independent streams derived from it.
    kernel:
        Device top-``s`` engine over the fused hash keys: ``"fused"`` (the
        binned tournament, or the s-round segmented min where the
        tournament plan rejects the geometry — the default) or ``"sort"``
        (Thrust-faithful full segmented sort).  Bit-identical.
    trial_chunk:
        Trials per device kernel round (bounds device working memory).
    streams:
        Trial chunks in flight at once on one device.  ``1`` (the default)
        is the paper's synchronous pipeline; more runs that many chunks
        concurrently, dividing the batch element budget by ``streams``.
    report_mode:
        Phase III output: ``"partition"`` (union-find, the paper's choice —
        no vertex in two clusters) or ``"overlapping"`` (per-component
        clusters that may overlap).
    grouping:
        Vertex-grouping strategy.  ``"two_level"`` is the paper's middle
        ground (merge via shared *second-level* shingles).  ``"one_shingle"``
        is the alternative Section III-B discusses and rejects — "group two
        vertices into the same cluster if they share at least one shingle,
        and this one shingle based approach can be too aggressive" — kept
        selectable for the ablation that demonstrates exactly that.
    """

    s1: int = 2
    c1: int = 200
    s2: int = 2
    c2: int = 100
    prime: int = DEFAULT_PRIME
    seed: int = 0
    kernel: str = KERNEL_FUSED
    trial_chunk: int = 16
    streams: int = 1
    report_mode: str = REPORT_PARTITION
    grouping: str = GROUPING_TWO_LEVEL

    def __post_init__(self) -> None:
        for name in ("s1", "s2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("c1", "c2", "trial_chunk"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not is_probable_prime(self.prime):
            raise ValueError(f"prime={self.prime} is not prime")
        if self.prime > (1 << 31) + (1 << 20):
            raise ValueError("prime too large: products must fit in uint64")
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.streams < 1:
            raise ValueError("streams must be >= 1")
        if self.report_mode not in (REPORT_PARTITION, REPORT_OVERLAPPING):
            raise ValueError(f"unknown report_mode {self.report_mode!r}")
        if self.grouping not in (GROUPING_TWO_LEVEL, GROUPING_ONE_SHINGLE):
            raise ValueError(f"unknown grouping {self.grouping!r}")
        if self.grouping == GROUPING_ONE_SHINGLE and self.report_mode != REPORT_PARTITION:
            raise ValueError("one_shingle grouping supports partition mode only")

    def with_overrides(self, **kwargs) -> "ShinglingParams":
        """A copy with some fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------ #
    # Derived per-pass configuration
    # ------------------------------------------------------------------ #

    def pass_config(self, pass_id: int) -> "PassConfig":
        """Hash pairs, salts, and sizes for pass 1 or pass 2."""
        if pass_id == 1:
            s, c, stream = self.s1, self.c1, "pass1"
        elif pass_id == 2:
            s, c, stream = self.s2, self.c2, "pass2"
        else:
            raise ValueError(f"pass_id must be 1 or 2, got {pass_id}")
        rng = spawn_rng(self.seed, stream)
        pairs = make_hash_pairs(c, rng, prime=self.prime)
        salts = np.array([trial_salt(pass_id, j) for j in range(c)], dtype=np.uint64)
        return PassConfig(pass_id=pass_id, s=s, c=c, prime=self.prime,
                          hash_pairs=pairs, salts=salts)


@dataclass(frozen=True)
class PassConfig:
    """Concrete configuration of one shingling pass."""

    pass_id: int
    s: int
    c: int
    prime: int
    hash_pairs: list[HashPair] = field(repr=False)
    salts: np.ndarray = field(repr=False)
    #: The ``a`` and ``b`` of every hash pair, built once, read-only.
    a_array: np.ndarray = field(init=False, repr=False, compare=False)
    b_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            array = np.array([getattr(p, name) for p in self.hash_pairs],
                             dtype=np.uint64)
            array.flags.writeable = False
            object.__setattr__(self, f"{name}_array", array)
