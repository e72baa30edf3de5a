"""Shared utilities: primality, seeded RNG helpers, timers, table rendering.

These are the lowest-level building blocks of the reproduction; every other
subpackage may depend on :mod:`repro.util` but never the other way around.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "HashPair": ".rng",
    "Stopwatch": ".timer",
    "TimeBreakdown": ".timer",
    "format_seconds": ".tables",
    "format_table": ".tables",
    "is_probable_prime": ".primes",
    "make_hash_pairs": ".rng",
    "next_prime": ".primes",
    "random_prime": ".primes",
    "spawn_rng": ".rng",
})
