"""Wall-clock timing primitives used by the gpClust component breakdown.

Table I of the paper reports per-component runtimes: CPU, GPU, host-to-device
transfer (``Data c->g``), device-to-host transfer (``Data g->c``) and Disk I/O.
:class:`TimeBreakdown` accumulates named buckets so the pipeline can report
the same columns.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

# ---------------------------------------------------------------------- #
# Clock injection
# ---------------------------------------------------------------------- #
#
# Every timing primitive in the repository reads the clock through
# :func:`clock` rather than calling ``time.perf_counter`` directly (and
# never ``time.time``, whose wall-clock jumps would corrupt durations).
# Tests inject a deterministic fake via :func:`set_clock`/:func:`fake_clock`
# so timing assertions stop depending on scheduler noise.

_CLOCK: Callable[[], float] = time.perf_counter


def clock() -> float:
    """Monotonic seconds from the currently-installed clock source."""
    return _CLOCK()


def set_clock(fn: Callable[[], float]) -> Callable[[], float]:
    """Install a clock source; returns the previous one (for restoration)."""
    global _CLOCK
    previous = _CLOCK
    _CLOCK = fn
    return previous


@contextmanager
def fake_clock(fn: Callable[[], float]) -> Iterator[Callable[[], float]]:
    """Temporarily install ``fn`` as the clock source.

    >>> ticks = iter(range(100))
    >>> with fake_clock(lambda: float(next(ticks))):
    ...     sw = Stopwatch()
    ...     with sw:
    ...         pass
    >>> sw.elapsed
    1.0
    """
    previous = set_clock(fn)
    try:
        yield fn
    finally:
        set_clock(previous)


class Stopwatch:
    """A resumable wall-clock stopwatch.

    >>> sw = Stopwatch()
    >>> with sw:
    ...     pass
    >>> sw.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed: float = 0.0
        self._started_at: float | None = None

    def start(self) -> None:
        if self._started_at is not None:
            raise RuntimeError("stopwatch already running")
        self._started_at = clock()

    def stop(self) -> float:
        if self._started_at is None:
            raise RuntimeError("stopwatch not running")
        delta = clock() - self._started_at
        self.elapsed += delta
        self._started_at = None
        return delta

    def reset(self) -> None:
        self.elapsed = 0.0
        self._started_at = None

    @property
    def running(self) -> bool:
        return self._started_at is not None

    def __enter__(self) -> "Stopwatch":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# Canonical bucket names matching Table I's columns.
BUCKET_CPU = "cpu"
BUCKET_GPU = "gpu"
BUCKET_C2G = "data_c2g"
BUCKET_G2C = "data_g2c"
BUCKET_IO = "disk_io"

TABLE1_BUCKETS = (BUCKET_CPU, BUCKET_GPU, BUCKET_C2G, BUCKET_G2C, BUCKET_IO)


@dataclass
class TimeBreakdown:
    """Accumulates wall-clock seconds into named buckets.

    A separate ``modeled`` dict accumulates *simulated* device seconds from
    the transfer/kernel cost models, kept apart from measured wall time so
    benchmark reports can show both honestly.

    Accumulation is thread-safe: multi-stream execution charges buckets from
    worker threads.  Under concurrent execution the buckets record *busy*
    seconds per component, so their sum bounds — and may exceed — the
    elapsed wall time, exactly like per-stream profiler output on real
    hardware.
    """

    measured: dict[str, float] = field(default_factory=dict)
    modeled: dict[str, float] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def add(self, bucket: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative duration {seconds!r} for bucket {bucket!r}")
        with self._lock:
            self.measured[bucket] = self.measured.get(bucket, 0.0) + seconds

    def add_modeled(self, bucket: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative duration {seconds!r} for bucket {bucket!r}")
        with self._lock:
            self.modeled[bucket] = self.modeled.get(bucket, 0.0) + seconds

    def timing(self, bucket: str) -> "_Timing":
        """Context manager that adds the elapsed wall time to ``bucket``."""
        return _Timing(self, bucket)

    def get(self, bucket: str) -> float:
        return self.measured.get(bucket, 0.0)

    def get_modeled(self, bucket: str) -> float:
        return self.modeled.get(bucket, 0.0)

    @property
    def total(self) -> float:
        return sum(self.measured.values())

    def merge(self, other: "TimeBreakdown") -> None:
        """Fold another breakdown's buckets into this one."""
        for bucket, seconds in other.measured.items():
            self.add(bucket, seconds)
        for bucket, seconds in other.modeled.items():
            self.add_modeled(bucket, seconds)

    def as_row(self) -> dict[str, float]:
        """Measured seconds for the five Table-I buckets plus the total."""
        row = {bucket: self.get(bucket) for bucket in TABLE1_BUCKETS}
        row["total"] = self.total
        return row


class _Timing:
    """:meth:`TimeBreakdown.timing`'s context manager.

    A plain class rather than a generator-based one: a run enters
    hundreds of bucket regions, and the time spent entering and leaving
    each falls outside every bucket.
    """

    __slots__ = ("_breakdown", "_bucket", "_t0")

    def __init__(self, breakdown: TimeBreakdown, bucket: str) -> None:
        self._breakdown = breakdown
        self._bucket = bucket

    def __enter__(self) -> None:
        self._t0 = clock()

    def __exit__(self, *exc) -> None:
        self._breakdown.add(self._bucket, clock() - self._t0)
