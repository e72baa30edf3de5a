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

:func:`plan_alignment_bins` is the same idea for the alignment offload:
candidate pairs are grouped into *length bins* — dtype- and length-
homogeneous groups whose padded DP rectangle wastes a bounded fraction of
cells — so the batched Smith-Waterman kernels keep their vector lanes full
(MetaCache-GPU's length-aware batching, applied to pairs instead of reads).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

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


# --------------------------------------------------------------------- #
# Length-binned packing for the alignment offload
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class AlignmentBin:
    """One dtype- and length-homogeneous group of candidate pairs.

    Attributes
    ----------
    order_lo / order_hi:
        Half-open range into the length-sorted pair order (see
        :class:`AlignmentBinPlan.order`): the bin's members are
        ``plan.order[order_lo:order_hi]``.
    max_short / max_long:
        Padded DP rectangle of the bin: every member pair is padded to
        ``(max_short, max_long)``.
    dtype:
        DP state dtype shared by every member (the planner cuts a bin
        whenever adding a pair would escalate the dtype).
    padded_cells / actual_cells:
        DP cells the padded rectangle computes vs. the cells the member
        pairs actually need; their gap is the bin's padding waste.
    """

    order_lo: int
    order_hi: int
    max_short: int
    max_long: int
    dtype: np.dtype
    padded_cells: int
    actual_cells: int

    @property
    def n_pairs(self) -> int:
        return self.order_hi - self.order_lo

    @property
    def padding_waste(self) -> float:
        """Fraction of the padded rectangle spent on padding (0 = none)."""
        if self.padded_cells == 0:
            return 0.0
        return 1.0 - self.actual_cells / self.padded_cells


@dataclass(frozen=True)
class AlignmentBinPlan:
    """The full bin schedule for one alignment shard.

    ``order`` is the length-sorted permutation of the shard's pair indices;
    each bin addresses a contiguous slice of it.
    """

    bins: list[AlignmentBin]
    order: np.ndarray

    @property
    def n_bins(self) -> int:
        return len(self.bins)

    @property
    def padded_cells(self) -> int:
        return sum(b.padded_cells for b in self.bins)

    @property
    def actual_cells(self) -> int:
        return sum(b.actual_cells for b in self.bins)

    @property
    def padding_waste(self) -> float:
        """Whole-plan wasted-cell fraction (the ``padding_waste`` metric)."""
        padded = self.padded_cells
        if padded == 0:
            return 0.0
        return 1.0 - self.actual_cells / padded

    def __iter__(self):
        return iter(self.bins)


def plan_alignment_bins(short_lens: np.ndarray, long_lens: np.ndarray,
                        dtype_for: Callable[[int, int], np.dtype],
                        max_pairs: int = 384,
                        max_waste: float = 0.25,
                        min_pairs: int = 32,
                        max_block_bytes: int | None = None
                        ) -> AlignmentBinPlan:
    """Group candidate pairs into length-homogeneous alignment bins.

    Pairs are sorted by ``(long, short)`` length (so the padded rectangle
    tracks its members tightly), then cut greedily: a bin closes when it
    reaches ``max_pairs``, when admitting the next pair would push its
    wasted-cell fraction past ``max_waste`` (once at least ``min_pairs``
    members justify the per-bin launch overhead), or when the next pair
    would escalate the bin's DP dtype — naive rectangular padding over an
    unsorted chunk wastes 2-3x the cells on metagenomic length mixes.  With
    ``max_block_bytes`` a bin also closes before its ``(max_long, n_pairs)``
    block in the bin's dtype would exceed that many bytes (a single pair
    always opens a bin), which bounds the kernels' per-bin buffers.

    ``dtype_for(max_short, max_long)`` maps a bin's padded geometry to its
    DP state dtype (see :func:`repro.sequence.smith_waterman.dp_dtype`);
    it must be a pure function, since it runs once per distinct geometry.
    Each bin's cut is found with array passes over its candidate window, so
    the Python work is per bin, not per pair.
    """
    if max_pairs < 1:
        raise ValueError("max_pairs must be >= 1")
    if not 0.0 <= max_waste < 1.0:
        raise ValueError("max_waste must be in [0, 1)")
    short_lens = np.asarray(short_lens, dtype=np.int64)
    long_lens = np.asarray(long_lens, dtype=np.int64)
    n = short_lens.size
    order = np.lexsort((short_lens, long_lens))
    if n == 0:
        return AlignmentBinPlan(bins=[], order=order)

    ls = short_lens[order]
    ll = long_lens[order]      # non-decreasing: the primary sort key
    cum_cells = np.concatenate([[0], np.cumsum(ls * ll)])
    # The rule runs once per distinct padded geometry, not once per pair.
    dtype_of = functools.lru_cache(maxsize=None)(dtype_for)

    bins: list[AlignmentBin] = []
    lo = 0
    while lo < n:
        # Grow the bin over a window of at most max_pairs pairs; it closes
        # before the first pair that would change its dtype, push its waste
        # past max_waste or its block past max_block_bytes.  Entry k is the
        # bin [lo, lo + k].
        hi = min(lo + max_pairs, n)
        max_s = np.maximum.accumulate(ls[lo:hi])
        max_l = ll[lo:hi]
        size = np.arange(1, hi - lo + 1)
        padded = size * max_s * max_l
        actual = cum_cells[lo + 1:hi + 1] - cum_cells[lo]
        with np.errstate(divide="ignore", invalid="ignore"):
            wasteful = ((size > min_pairs) & (padded > 0)
                        & (1.0 - actual / padded > max_waste))
        wasteful[0] = False     # the bin's first pair always opens it
        cut = int(np.argmax(wasteful)) if wasteful.any() else hi - lo
        dtype = dtype_of(int(max_s[0]), int(max_l[0]))
        grows = (max_s[1:cut] != max_s[:cut - 1]) | \
            (max_l[1:cut] != max_l[:cut - 1])
        for k in np.flatnonzero(grows) + 1:
            if dtype_of(int(max_s[k]), int(max_l[k])) != dtype:
                cut = int(k)
                break
        if max_block_bytes is not None:
            over = size[:cut] * max_l[:cut] * dtype.itemsize > max_block_bytes
            over[0] = False
            if over.any():
                cut = int(np.argmax(over))
        bins.append(AlignmentBin(
            order_lo=lo, order_hi=lo + cut, max_short=int(max_s[cut - 1]),
            max_long=int(max_l[cut - 1]), dtype=dtype,
            padded_cells=int(padded[cut - 1]),
            actual_cells=int(actual[cut - 1])))
        lo += cut
    return AlignmentBinPlan(bins=bins, order=order)


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
