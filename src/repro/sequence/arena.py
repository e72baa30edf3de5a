"""Shared-memory sequence arena for multi-process alignment workers.

pGraph distributes alignment work across processors; the expensive part of
doing that naively in Python is pickling the sequence list into every
worker. This module packs the whole sequence set once into a
:mod:`multiprocessing.shared_memory` block — a flat ``uint8`` residue
buffer plus an ``int64`` offsets table — so workers attach to the segment
by name and reconstruct zero-copy views of any sequence without any
per-task serialization.

Layout of the block::

    [ offsets : (n+1) * int64 ][ residues : total_len * uint8 ]

``offsets[i]:offsets[i+1]`` delimits sequence ``i`` within the residue
region. The arena owner (parent process) must outlive all attachments and
call :meth:`SequenceArena.close` (workers) / :meth:`SequenceArena.unlink`
(owner) when done; ``SequenceArena`` is also a context manager that does
the right one automatically.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

_OFFSET_DTYPE = np.int64


def flatten_sequences(
        sequences: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Pack a sequence set into flat CSR form: ``(residues, offsets)``.

    ``residues`` is one contiguous ``uint8`` buffer, ``offsets`` the
    ``(n+1,)`` int64 boundary table (``offsets[i]:offsets[i+1]`` delimits
    sequence ``i``).  This is the arena's wire layout without the shared-
    memory segment — what the ``local`` alignment backend scores from, and
    what :meth:`SequenceArena.pack` writes into its block.
    """
    lengths = np.fromiter((s.size for s in sequences), dtype=_OFFSET_DTYPE,
                          count=len(sequences))
    offsets = np.zeros(lengths.size + 1, dtype=_OFFSET_DTYPE)
    np.cumsum(lengths, out=offsets[1:])
    residues = np.empty(int(offsets[-1]), dtype=np.uint8)
    for i, seq in enumerate(sequences):
        residues[offsets[i]:offsets[i + 1]] = np.asarray(seq, dtype=np.uint8)
    return residues, offsets


class SequenceArena:
    """A sequence set packed into one shared-memory segment.

    Create with :meth:`pack` in the parent, re-open with :meth:`attach`
    in workers (using :attr:`name`). Sequences come back as zero-copy
    ``uint8`` views into the shared buffer.
    """

    def __init__(self, shm: shared_memory.SharedMemory, n_sequences: int,
                 owner: bool) -> None:
        self._shm = shm
        self._owner = owner
        self.name = shm.name
        self.n_sequences = n_sequences
        header = (n_sequences + 1) * _OFFSET_DTYPE().itemsize
        self.offsets = np.ndarray(n_sequences + 1, dtype=_OFFSET_DTYPE,
                                  buffer=shm.buf[:header])
        total = int(self.offsets[-1])
        self.residues = np.ndarray(total, dtype=np.uint8,
                                   buffer=shm.buf[header:header + total])

    @classmethod
    def pack(cls, sequences: list[np.ndarray]) -> "SequenceArena":
        """Copy ``sequences`` into a fresh shared-memory segment (owner)."""
        lengths = np.array([s.size for s in sequences], dtype=_OFFSET_DTYPE)
        offsets = np.zeros(lengths.size + 1, dtype=_OFFSET_DTYPE)
        np.cumsum(lengths, out=offsets[1:])
        header = offsets.nbytes
        total = int(offsets[-1])
        # shared_memory rejects zero-size segments; always room for offsets.
        shm = shared_memory.SharedMemory(create=True,
                                         size=max(header + total, 1))
        shm.buf[:header] = offsets.tobytes()
        arena = cls(shm, len(sequences), owner=True)
        for i, seq in enumerate(sequences):
            arena.residues[offsets[i]:offsets[i + 1]] = np.asarray(
                seq, dtype=np.uint8)
        return arena

    @classmethod
    def attach(cls, name: str, n_sequences: int) -> "SequenceArena":
        """Open an existing arena by segment name (worker side).

        On Python < 3.13 attaching also registers the segment with the
        resource tracker, which then unlinks it out from under the owner
        when this process exits.  Only the owner may own cleanup, so the
        registration is suppressed for the duration of the open.
        """
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        try:
            resource_tracker.register = lambda *a, **k: None
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
        return cls(shm, n_sequences, owner=False)

    def sequence(self, i: int) -> np.ndarray:
        """Zero-copy ``uint8`` view of sequence ``i``."""
        return self.residues[self.offsets[i]:self.offsets[i + 1]]

    def sequences(self) -> list[np.ndarray]:
        """Views of every sequence, in order."""
        return [self.sequence(i) for i in range(self.n_sequences)]

    def close(self) -> None:
        """Detach this process's mapping (does not free the segment)."""
        # Views into shm.buf must be dropped before close() or mmap refuses.
        self.offsets = None
        self.residues = None
        self._shm.close()

    def unlink(self) -> None:
        """Detach and free the segment. Owner only, call exactly once."""
        self.close()
        self._shm.unlink()

    def __enter__(self) -> "SequenceArena":
        return self

    def __exit__(self, *exc) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()
