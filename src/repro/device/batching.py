"""Batch planning: fitting large graphs through small device memory.

"In order to process the large-scale input graph on the relatively small
device memory, the input graph ... can be partitioned into batches of
adjacency lists, and subsequently moved to the device memory batch by batch.
In case an adjacency list has to be split between two batches, a subsequent
data aggregation on the CPU side will ... merge the different copies of
shingles into one correct copy for the split adjacency list." (Section III-C)

:func:`plan_batches` produces that partition.  Each batch is a contiguous
slice of the flat CSR element buffer plus a local ``indptr``; a batch entry
(*chunk*) records which source segment it came from and whether it is a split
piece, so the aggregation step can merge split chunks correctly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Batch:
    """One device-sized slice of the input adjacency structure.

    Attributes
    ----------
    element_lo / element_hi:
        Half-open range into the source flat ``indices`` buffer.
    local_indptr:
        Segment boundaries *within* the batch slice (starts at 0).
    segment_ids:
        Source segment (vertex) id of each local segment; a source segment
        split across batches appears in several batches with the same id.
    is_split:
        Per-local-segment flag: True when this chunk is an incomplete piece
        of its source adjacency list.
    """

    element_lo: int
    element_hi: int
    local_indptr: np.ndarray
    segment_ids: np.ndarray
    is_split: np.ndarray

    @property
    def n_elements(self) -> int:
        return self.element_hi - self.element_lo

    @property
    def n_segments(self) -> int:
        return self.segment_ids.size

    def slice_elements(self, flat_indices: np.ndarray) -> np.ndarray:
        """The batch's element payload from the source buffer."""
        return flat_indices[self.element_lo:self.element_hi]


@dataclass(frozen=True)
class BatchPlan:
    """The full batch schedule for one shingling pass."""

    batches: list[Batch]
    max_elements_per_batch: int
    n_source_segments: int

    @property
    def n_batches(self) -> int:
        return len(self.batches)

    @property
    def n_split_segments(self) -> int:
        """Number of distinct source segments that were split."""
        split_ids = np.concatenate(
            [b.segment_ids[b.is_split] for b in self.batches]
        ) if self.batches else np.empty(0, dtype=np.int64)
        return int(np.unique(split_ids).size)

    def __iter__(self):
        return iter(self.batches)


def max_batch_elements(capacity_bytes: int, n_trials_chunk: int, s: int,
                       bytes_per_element: int = 8) -> int:
    """Derive the element budget per batch from device memory capacity.

    Resident on the device during one trial round: the element buffer (nnz),
    the hashed + packed + masking-copy working matrices (3 x T x nnz), the
    top-s output (T x n_seg x s <= T x nnz x s in the worst case of tiny
    segments) and the fingerprint row (T x n_seg <= T x nnz).  We budget
    conservatively: ``nnz * (1 + (4 + s) * T) * 8 bytes <= capacity``.
    """
    per_element = (1 + (4 + s) * n_trials_chunk) * bytes_per_element
    budget = capacity_bytes // per_element
    if budget < 1:
        raise ValueError(
            f"device capacity {capacity_bytes} B too small for even one element "
            f"per batch with trial chunk {n_trials_chunk}, s={s}"
        )
    return int(budget)


def plan_batches(indptr: np.ndarray, max_elements: int) -> BatchPlan:
    """Partition CSR segments into batches of at most ``max_elements``.

    Whole segments are packed greedily in order; a segment longer than
    ``max_elements`` (or one that crosses a batch boundary while the batch
    is still empty enough) is split across consecutive batches.

    Splitting policy: a segment is split only when it does not fit in the
    *remaining* space of the current batch AND is larger than half a batch —
    smaller segments just start a new batch, avoiding pointless splits while
    keeping batches near-full for big lists.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    if max_elements < 1:
        raise ValueError("max_elements must be >= 1")
    n_seg = indptr.size - 1
    nnz = int(indptr[-1])

    if (0 < nnz <= max_elements and indptr[0] == 0
            and np.all(np.diff(indptr) > 0)):
        # Everything fits and no segment is empty: the one whole batch the
        # greedy loop would build, without its per-segment loop.
        batches = [Batch(element_lo=0, element_hi=nnz,
                         local_indptr=indptr.copy(),
                         segment_ids=np.arange(n_seg, dtype=np.int64),
                         is_split=np.zeros(n_seg, dtype=bool))]
    else:
        batches = _greedy_batches(indptr, max_elements)
    plan = BatchPlan(batches=batches, max_elements_per_batch=max_elements,
                     n_source_segments=n_seg)
    _validate_plan(plan, indptr, nnz)
    return plan


def _greedy_batches(indptr: np.ndarray, max_elements: int) -> list[Batch]:
    """The packing loop of :func:`plan_batches`, one segment at a time."""
    batches: list[Batch] = []
    cur_lo = 0                      # element offset where current batch starts
    cur_fill = 0                    # elements used in current batch
    cur_bounds: list[int] = [0]     # local indptr under construction
    cur_ids: list[int] = []
    cur_split: list[bool] = []

    def flush() -> None:
        nonlocal cur_lo, cur_fill, cur_bounds, cur_ids, cur_split
        if cur_fill == 0 and not cur_ids:
            return
        batches.append(Batch(
            element_lo=cur_lo,
            element_hi=cur_lo + cur_fill,
            local_indptr=np.asarray(cur_bounds, dtype=np.int64),
            segment_ids=np.asarray(cur_ids, dtype=np.int64),
            is_split=np.asarray(cur_split, dtype=bool),
        ))
        cur_lo += cur_fill
        cur_fill = 0
        cur_bounds = [0]
        cur_ids = []
        cur_split = []

    for seg in range(indptr.size - 1):
        remaining = int(indptr[seg + 1] - indptr[seg])
        if remaining == 0:
            continue  # empty segments carry no work; they rejoin in aggregation
        while remaining > 0:
            space = max_elements - cur_fill
            if remaining <= space:
                take = remaining
            elif space >= max_elements // 2 or remaining > max_elements:
                take = space  # split: fill the batch
            else:
                flush()
                continue
            if take == 0:
                flush()
                continue
            cur_fill += take
            cur_bounds.append(cur_fill)
            cur_ids.append(seg)
            cur_split.append(take < int(indptr[seg + 1] - indptr[seg]))
            remaining -= take
            if cur_fill == max_elements:
                flush()
    flush()
    return batches


def _validate_plan(plan: BatchPlan, indptr: np.ndarray, nnz: int) -> None:
    """Internal consistency checks: full coverage, in-order, within budget."""
    covered = 0
    for batch in plan.batches:
        if batch.element_lo != covered:
            raise AssertionError("batches must tile the element buffer in order")
        if batch.n_elements > plan.max_elements_per_batch:
            raise AssertionError("batch exceeds element budget")
        if batch.local_indptr[-1] != batch.n_elements:
            raise AssertionError("batch indptr does not cover its elements")
        covered = batch.element_hi
    if covered != nnz:
        raise AssertionError(f"batches cover {covered} of {nnz} elements")
