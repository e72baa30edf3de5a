"""Scheduling primitives shared by the device drivers.

The paper's pipeline is fully synchronous ("the data movement operations are
implemented using synchronous mechanism, and the overhead of transferring
data between CPU and GPU is unavoidable") and names asynchronous operation as
future work (§V).  The driver in :mod:`repro.core.device_exec` runs a
pass's trial chunks (:func:`trial_chunks`) one at a time, on ``streams``
concurrent workers when ``streams > 1``, or sharded across the members of
a :class:`~repro.device.group.DeviceGroup`.  The device aligner
double-buffers its bins with :func:`double_buffer`.

Every schedule produces bit-identical results; only the wall-clock overlap
differs.  Table-I buckets stay faithful under concurrency: each component
accumulates its own busy seconds.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, TypeVar

_T = TypeVar("_T")
_P = TypeVar("_P")


def trial_chunks(c: int, trial_chunk: int) -> list[tuple[int, int]]:
    """Split ``c`` trials into ``[lo, hi)`` chunks of at most ``trial_chunk``.

    The unit of work every pass schedule runs; shared by the driver and by
    anything that needs to reason about per-chunk shapes (for example the
    on-device reduction's key-packing bound).
    """
    if trial_chunk < 1:
        raise ValueError("trial_chunk must be >= 1")
    return [(lo, min(lo + trial_chunk, c)) for lo in range(0, c, trial_chunk)]


def double_buffer(items: Iterable[_T],
                  prepare: Callable[[_T], _P]) -> Iterator[tuple[_T, _P]]:
    """Yield ``(item, prepare(item))`` with the next item prepared early.

    While the consumer processes item *i*, a single worker thread runs
    ``prepare`` on item *i+1* (NumPy-heavy prepare work releases the GIL, so
    it genuinely overlaps the consumer's kernels).  Results come back
    strictly in order, so downstream output is bit-identical to the
    sequential schedule.  The device aligner runs its single-device bin loop
    through this to pack alignment bin *i+1* while bin *i* scores.
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
