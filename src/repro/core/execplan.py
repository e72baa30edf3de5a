"""Execution plans for the device-backed shingling hot path.

The paper's pipeline is fully synchronous ("the data movement operations are
implemented using synchronous mechanism, and the overhead of transferring
data between CPU and GPU is unavoidable") and names asynchronous operation as
future work (§V).  This module makes the schedule pluggable so the driver in
:mod:`repro.core.device_exec` can run the same batch/trial-chunk work units
under three plans:

``sync``
    The paper-faithful baseline: upload, launch, download, aggregate — one
    operation at a time.
``prefetch``
    Double-buffered transfers: while batch *i* computes, a single copy
    thread uploads batch *i+1*.  The element budget is halved because two
    batches are resident.
``multistream``
    Trial-chunk streams: each pass's ``c`` trials split into independent
    chunks executed concurrently on a small worker pool.  NumPy kernels
    release the GIL, so streams overlap with each other and with CPU-side
    scatter/aggregation — the analogue of issuing kernel rounds on separate
    CUDA streams.  The element budget is divided by the stream count because
    each stream holds its own working set on the device.

``multidevice``
    Chunk sharding across a :class:`~repro.device.group.DeviceGroup`.  Each
    member downloads its own chunk partials; the host merges them.

All plans produce bit-identical :class:`~repro.core.passresult.PassResult`s;
only the schedule (and therefore the wall-clock overlap) differs.  Table-I
buckets stay faithful under concurrency: each component accumulates its own
busy seconds.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TypeVar

_T = TypeVar("_T")
_P = TypeVar("_P")

EXEC_SYNC = "sync"
EXEC_PREFETCH = "prefetch"
EXEC_MULTISTREAM = "multistream"
EXEC_MULTIDEVICE = "multidevice"

EXEC_MODES = (EXEC_SYNC, EXEC_PREFETCH, EXEC_MULTISTREAM, EXEC_MULTIDEVICE)


def trial_chunks(c: int, trial_chunk: int) -> list[tuple[int, int]]:
    """Split ``c`` trials into ``[lo, hi)`` chunks of at most ``trial_chunk``.

    The unit of work every execution plan schedules; shared by the driver
    and by anything that needs to reason about per-chunk shapes (for
    example the on-device reduction's key-packing bound).
    """
    if trial_chunk < 1:
        raise ValueError("trial_chunk must be >= 1")
    return [(lo, min(lo + trial_chunk, c)) for lo in range(0, c, trial_chunk)]


def double_buffer(items: Iterable[_T],
                  prepare: Callable[[_T], _P]) -> Iterator[tuple[_T, _P]]:
    """Yield ``(item, prepare(item))`` with the next item prepared early.

    The generic schedule behind the ``prefetch`` execution mode: while the
    consumer processes item *i*, a single worker thread runs ``prepare`` on
    item *i+1* (NumPy-heavy prepare work releases the GIL, so it genuinely
    overlaps the consumer's kernels).  Results come back strictly in order,
    so downstream output is bit-identical to the sequential schedule.  The
    device aligner runs its bin loop through this to pack alignment bin
    *i+1* while bin *i* scores; the shingling driver in
    :mod:`repro.core.device_exec` keeps its own equivalent inline schedule
    because its prepare step (batch upload) must interleave with explicit
    ``device.free`` calls.
    """
    it = iter(items)
    try:
        head = next(it)
    except StopIteration:
        return
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(prepare, head)
        for nxt in it:
            prepared = pending.result()
            next_pending = pool.submit(prepare, nxt)
            yield head, prepared
            head, pending = nxt, next_pending
        yield head, pending.result()


@dataclass(frozen=True)
class ExecutionPlan:
    """How one shingling pass schedules its batches and trial chunks.

    Attributes
    ----------
    mode:
        One of :data:`EXEC_MODES`.
    streams:
        Worker count for ``multistream`` (ignored by the other modes).
    devices:
        Member count for ``multidevice``: trial chunks shard across a
        :class:`repro.device.group.DeviceGroup` of this size, one driver
        thread per member.  Ignored by the other modes; ``multidevice``
        with one device degrades to the synchronous schedule.
    """

    mode: str = EXEC_SYNC
    streams: int = 2
    devices: int = 1

    def __post_init__(self) -> None:
        if self.mode not in EXEC_MODES:
            raise ValueError(
                f"unknown exec mode {self.mode!r}; expected one of {EXEC_MODES}")
        if self.streams < 1:
            raise ValueError("streams must be >= 1")
        if self.devices < 1:
            raise ValueError("devices must be >= 1")

    @property
    def n_workers(self) -> int:
        """Concurrent kernel streams this plan keeps in flight."""
        if self.mode == EXEC_MULTISTREAM:
            return self.streams
        if self.mode == EXEC_MULTIDEVICE:
            return self.devices
        return 1

    @property
    def resident_factor(self) -> int:
        """How many working sets are device-resident at once.

        The batch element budget is divided by this: prefetch keeps two
        batches resident (double buffering); multistream keeps one batch
        but ``streams`` kernel working sets.  ``multidevice`` replicates
        the batch across members, so each device holds one batch plus one
        kernel working set — the per-device budget is undivided.
        """
        if self.mode == EXEC_PREFETCH:
            return 2
        if self.mode == EXEC_MULTISTREAM:
            return self.streams
        return 1

    @classmethod
    def from_mode(cls, mode: str, streams: int = 2,
                  devices: int = 1) -> "ExecutionPlan":
        return cls(mode=mode, streams=streams, devices=devices)
