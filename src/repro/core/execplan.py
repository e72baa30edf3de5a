"""Scheduling primitives shared by the device drivers.

The paper's pipeline is fully synchronous ("the data movement operations are
implemented using synchronous mechanism, and the overhead of transferring
data between CPU and GPU is unavoidable") and names asynchronous operation as
future work (§V).  The driver in :mod:`repro.core.device_exec` runs a
pass's trial chunks (:func:`trial_chunks`) one at a time, on ``streams``
concurrent workers when ``streams > 1``, or sharded across the members of
a :class:`~repro.device.group.DeviceGroup`.

Every schedule produces bit-identical results; only the wall-clock overlap
differs.  Table-I buckets stay faithful under concurrency: each component
accumulates its own busy seconds.
"""

from __future__ import annotations


def trial_chunks(c: int, trial_chunk: int) -> list[tuple[int, int]]:
    """Split ``c`` trials into ``[lo, hi)`` chunks of at most ``trial_chunk``.

    The unit of work every pass schedule runs; shared by the driver and by
    anything that needs to reason about per-chunk shapes (for example the
    on-device reduction's key-packing bound).
    """
    if trial_chunk < 1:
        raise ValueError("trial_chunk must be >= 1")
    return [(lo, min(lo + trial_chunk, c)) for lo in range(0, c, trial_chunk)]
