"""Device-path execution of one shingling pass (Algorithm 2's inner loops).

The driver here is the CPU side of the paper's computing framework
(Figure 3): it partitions the input adjacency structure into device-sized
batches, uploads them, launches the shingle-extraction kernels, and
aggregates the downloaded shingles — including the merge of adjacency lists
that were split across batches.

The schedule follows from a ``streams`` count.  ``streams=1`` (the
default) is the paper-faithful synchronous pipeline: the paper's "data
movement operations are implemented using synchronous mechanism" and it
names asynchronous operation as future work (§V).  ``streams > 1`` runs
that many trial chunks (:func:`trial_chunks`) concurrently on a worker
pool.  NumPy kernels release the GIL, so streams overlap with each other
and with CPU-side aggregation; the batch element budget is divided by
``streams`` because each stream holds its own working set.  Table-I
buckets stay faithful under concurrency: each component accumulates its
own busy seconds.

In the dominant single-batch regime every schedule aggregates **streamingly**:
each trial chunk's ``(t, n, s)`` block is folded into a partial result and
dropped as soon as its kernels finish (see
:class:`repro.core.aggregate.StreamingAggregator`), so peak host memory is
O(chunk * n * s) instead of O(c * n * s).  When the graph needs several
batches, per-batch scatter requires the full accumulators (bounded by the
same device-capacity math as before); the streaming path resumes once a
batch covers the input.

Partition mode's pass II skips even the streaming aggregation:
:func:`device_union_pass` folds each chunk's top-``s`` ids straight into
the Phase III union, so ``G_II`` is never built, and each chunk shingles
only the lists that union has not settled yet.

The ``kernel`` name is passed through to the device, where it picks only
the top-``s`` engine; every kernel takes the same path through a pass.

Every step is charged to the right Table-I bucket: batch planning and
aggregation to ``cpu``, kernel work to ``gpu`` (inside the device facade),
transfers to ``data_c2g``/``data_g2c``.  Every schedule produces results
bit-identical to :func:`repro.core.serial.serial_shingle_pass`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.aggregate import (StreamingAggregator, aggregate_pass,
                                  debug_checks_enabled, merge_splits_into)
from repro.core.params import KERNEL_FUSED, PassConfig
from repro.core.passresult import PassResult
from repro.core.report import PartitionFold
from repro.device.batching import (BatchPlan, max_batch_elements,
                                   plan_batches)
from repro.device.device import SimulatedDevice
from repro.device.kernels import (SENTINEL, TournamentPlan,
                                  build_tournament_plan,
                                  check_hash_coefficients,
                                  distinct_within_segments, reduce_keys_fit,
                                  segment_element_ids)
from repro.device.memory import DeviceBuffer, ScratchPool
from repro.util.mixhash import mix64_array
from repro.util.timer import BUCKET_CPU


def device_shingle_pass(
    indptr: np.ndarray,
    elements: np.ndarray,
    config: PassConfig,
    device: SimulatedDevice,
    *,
    kernel: str = KERNEL_FUSED,
    trial_chunk: int = 16,
    max_elements: int | None = None,
    streams: int = 1,
    min_generators: int = 1,
) -> PassResult:
    """Run one full shingling pass through the simulated device.

    Parameters
    ----------
    indptr, elements:
        Input adjacency structure in CSR form.  No id may repeat within a
        segment (graph adjacency lists and generator lists never do); on
        such input the kernels disagree with each other and with the
        serial pass, and with debug checks on the pass raises
        ``ValueError``.
    config:
        Pass configuration (s, c, hash pairs, salts).
    device:
        The simulated device; its breakdown accumulates component times.
    kernel, trial_chunk:
        Top-``s`` engine and trials per round (see :class:`SimulatedDevice`).
    max_elements:
        Batch element budget override; by default derived from the device's
        memory capacity.  Either way it is divided by ``streams``, which
        keeps ``streams`` kernel working sets resident.
    streams:
        Trial chunks in flight at once.
    min_generators:
        Keep only the shingles with at least this many generators; 1
        keeps every shingle.  The single-batch reducing path drops the
        others on the device (:func:`_single_batch_streaming`), every
        other path filters its finished result.

    Returns
    -------
    PassResult
        :func:`repro.core.serial.serial_shingle_pass` on the same inputs
        and configuration filtered with
        :meth:`~PassResult.with_min_generators`, under every schedule; its
        ``n_distinct`` counts every distinct shingle of the pass.
    """
    s, c = config.s, config.c
    t_start = time.perf_counter()
    inp = _compact_input(indptr, elements, config, device, trial_chunk,
                         max_elements, streams)
    elements, lengths, valid_ids = inp.elements, inp.lengths, inp.valid_ids
    batch_plan, chunks, n_seg = inp.batch_plan, inp.chunks, inp.n_seg

    if batch_plan.n_batches == 1:
        args = (device, elements, batch_plan.batches[0], chunks, config,
                kernel, streams, lengths, valid_ids, n_seg, inp.n_values)
        result = _single_batch_streaming(*args, min_generators)
        if result is None:
            # Two runs share a fingerprint, so a dropped run may belong to
            # a kept shingle: the full pass is exact, filtered below.
            device.obs.metrics.counter("shingle.fp_collision_fallbacks").add(1)
            result = _single_batch_streaming(*args, 1)
    else:
        result = _multi_batch_accumulate(
            device, elements, batch_plan, chunks, config, kernel, streams,
            lengths, valid_ids, n_seg, inp.n_values)

    with device.breakdown.timing(BUCKET_CPU):
        result = result.with_min_generators(min_generators)
        # Dedup accounting: how many (trial, segment) shingle occurrence
        # slots collapsed into distinct fingerprints this pass (the shingle
        # dedup ratio the bench JSONs report).
        metrics = device.obs.metrics
        metrics.counter("shingle.occurrence_slots").add(
            int(c) * valid_ids.size)
        metrics.counter("shingle.distinct_fps").add(int(result.n_distinct))
        tracer = device.obs.tracer
        if tracer.enabled:
            tracer.record("exec.shingle_pass", t_start, time.perf_counter(),
                          attrs={"streams": streams, "kernel": kernel,
                                 "c": c, "s": s, "n_segments": n_seg,
                                 "n_batches": batch_plan.n_batches,
                                 "n_shingles": int(result.n_distinct),
                                 "n_kept": int(result.n_shingles)})
    return result


class _PassInput(NamedTuple):
    """One pass's input after CPU-side compaction and batch planning."""

    elements: np.ndarray      # elements of the valid segments only
    lengths: np.ndarray       # (n_valid,) their lengths
    valid_ids: np.ndarray     # (n_valid,) their original segment ids
    n_seg: int                # segment count before compaction
    n_values: int             # exclusive element-id bound
    batch_plan: BatchPlan
    chunks: list[tuple[int, int]]
    # Original segment ids of the lists dropped as duplicates, and of the
    # kept list each one equals (both empty unless deduplicated).
    dup_ids: np.ndarray
    rep_ids: np.ndarray


def _compact_input(indptr, elements, config: PassConfig, device,
                   trial_chunk: int, max_elements: int | None,
                   streams: int, *, dedup: bool = False) -> _PassInput:
    """Drop short segments and plan the device batches (cpu bucket).

    With ``dedup``, every segment that equals an earlier kept one is
    dropped too (:func:`_list_representatives`); ``dup_ids``/``rep_ids``
    name the dropped segments and the kept segment each one equals.
    The steps trace as sibling spans: ``exec.compact``,
    ``exec.pass2_dedup`` (with ``dedup``) and ``exec.batch_plan``.

    With debug checks on, raises ``ValueError`` when an id repeats within
    a segment (the passes' input precondition).
    """
    if streams < 1:
        raise ValueError("streams must be >= 1")
    # Checked here, not in a kernel round, as a pass may run no round.
    check_hash_coefficients(config.a_array, config.prime)
    s = config.s
    tracer = device.obs.tracer
    with device.breakdown.timing(BUCKET_CPU):
        with tracer.span("exec.compact"):
            indptr = np.asarray(indptr, dtype=np.int64)
            elements = np.asarray(elements, dtype=np.int64)
            all_lengths = np.diff(indptr)
            # CPU-side compaction: segments shorter than s generate no
            # shingles (Section III-B: shingles exist only for "any vertex
            # ... that has at least s links"), so they never ship to the
            # device.  The serial reference skips them the same way.  Pass
            # II's input (pass I's kept generator lists) has none.
            valid = all_lengths >= s
            if valid.all():
                valid_ids = np.arange(all_lengths.size)
                lengths, compact_indptr = all_lengths, indptr
            else:
                valid_ids = np.flatnonzero(valid)
                lengths = all_lengths[valid_ids]
                elements = elements[np.repeat(valid, all_lengths)]
                compact_indptr = _offsets(lengths)
            # Exclusive element-id bound; sizes the fused kernel's hash
            # table and the on-device reduction's packed keys.  Dropping
            # duplicate segments leaves the set of ids as it is.
            n_values = int(elements.max()) + 1 if elements.size else 1
        dup_ids = rep_ids = valid_ids[:0]
        if dedup:
            with tracer.span("exec.pass2_dedup",
                             n_lists=int(valid_ids.size)) as span:
                rep = _list_representatives(elements, compact_indptr,
                                            lengths, n_values)
                kept = rep == np.arange(rep.size)
                dup_rows = np.flatnonzero(~kept)
                if dup_rows.size:
                    dup_ids = valid_ids[dup_rows]
                    rep_ids = valid_ids[rep[dup_rows]]
                    elements = elements[np.repeat(kept, lengths)]
                    valid_ids = valid_ids[kept]
                    lengths = lengths[kept]
                    compact_indptr = _offsets(lengths)
                span.set(n_distinct=int(valid_ids.size))
            metrics = device.obs.metrics
            metrics.counter("shingle.pass2_lists").add(
                int(valid_ids.size + dup_ids.size))
            metrics.counter("shingle.pass2_distinct_lists").add(
                int(valid_ids.size))
        with tracer.span("exec.batch_plan"):
            if debug_checks_enabled() and not distinct_within_segments(
                    elements, compact_indptr, n_values):
                raise ValueError("an id repeats within an input segment")
            if max_elements is None:
                max_elements = max_batch_elements(
                    device.spec.memory_capacity_bytes, trial_chunk, s)
            max_elements = max(max_elements // streams, 1)
            return _PassInput(elements, lengths, valid_ids, all_lengths.size,
                              n_values,
                              plan_batches(compact_indptr, max_elements),
                              trial_chunks(config.c, trial_chunk),
                              dup_ids, rep_ids)


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """CSR offsets of consecutive segments of ``lengths``."""
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _list_fingerprints(elements: np.ndarray, indptr: np.ndarray,
                       n_values: int) -> np.ndarray:
    """Order-free uint64 fingerprint of every segment: the wrapping sum of
    :func:`~repro.util.mixhash.mix64` of its ids.

    The ids are mixed through one table of all ``n_values`` ids, then
    summed by one cumulative sum: each segment's sum is the difference of
    two of its entries (mod 2**64).  Segments must be non-empty.
    """
    mixed = mix64_array(np.arange(n_values, dtype=np.uint64))[elements]
    np.cumsum(mixed, out=mixed)
    ends = mixed[indptr[1:] - 1]
    fps = ends.copy()
    fps[1:] -= ends[:-1]
    return fps


def _list_representatives(elements: np.ndarray, indptr: np.ndarray,
                          lengths: np.ndarray, n_values: int) -> np.ndarray:
    """Row of the representative of every segment; equal segments share one.

    Segments are sorted once by :func:`_list_fingerprints`; each pair of
    neighbours with equal fingerprint and length is then compared element
    by element (one gather per side), so a fingerprint collision can never
    make two different segments share a representative — at worst it
    leaves two equal ones apart.  A run of confirmed-equal neighbours takes
    its first row as representative, which is its own.  Segments compare
    as lists: generator lists are sorted, so equal sets are equal lists.
    """
    fps = _list_fingerprints(elements, indptr, n_values)
    order = np.argsort(fps)
    fps = fps[order]
    lens = lengths[order]
    # pairs[i]: sorted rows i and i + 1 may be equal.
    pairs = np.flatnonzero((fps[1:] == fps[:-1]) & (lens[1:] == lens[:-1]))
    left, right = order[pairs], order[pairs + 1]
    pair_len = lens[pairs]
    pair_ptr = _offsets(pair_len)
    # Element positions of every left row, and of the right row beside it;
    # the gathers reuse those buffers, as each fresh array costs page faults.
    pos = np.repeat(indptr[left] - pair_ptr[:-1], pair_len)
    buf = np.arange(pair_ptr[-1])
    pos += buf
    other = np.repeat(indptr[right] - indptr[left], pair_len)
    other += pos
    np.take(elements, pos, out=buf, mode="clip")
    np.take(elements, other, out=pos, mode="clip")
    mismatch = np.flatnonzero(buf != pos)
    unequal = np.searchsorted(pair_ptr, mismatch, side="right") - 1
    # same[i]: sorted row i equals sorted row i - 1.
    same = np.zeros(lengths.size, dtype=bool)
    same[pairs + 1] = True
    same[pairs[unequal] + 1] = False
    first = ~same
    run = np.cumsum(first)
    run -= 1
    rep = np.empty(lengths.size, dtype=np.int64)
    rep[order] = order[first][run]
    return rep


def device_union_pass(
    indptr: np.ndarray,
    elements: np.ndarray,
    config: PassConfig,
    device: SimulatedDevice,
    *,
    members1: np.ndarray,
    n_vertices: int,
    kernel: str = KERNEL_FUSED,
    trial_chunk: int = 16,
    max_elements: int | None = None,
    streams: int = 1,
) -> PartitionFold | None:
    """Pass II fed straight into the Phase III partition union.

    Partition mode needs only the vertex components ``G_II`` induces, so
    this pass never builds ``G_II``: each trial chunk runs the hash, the
    top-``s`` engine ``kernel`` picks, and id recovery
    (:meth:`~repro.device.device.SimulatedDevice.shingle_chunk_ids`), and
    its occurrence slots go straight into a
    :class:`~repro.core.report.PartitionFold` as edges.  Slot ``(j, f)``
    with top ids ``m_0..m_{s-1}`` links ``members1[f, 0]`` to every
    ``m_i``; once per pass, every first-level shingle ``f`` with an input
    list of at least ``s`` generators links ``members1[f, 0]`` to the rest
    of its members.  These connect exactly what the star edges of
    :func:`~repro.core.report._phase3_edges` connect, with every
    second-level shingle repeated once per occurrence, so the components —
    and the labels — are the same.

    Each distinct input list is shingled once.  The compaction finds the
    lists that equal an earlier one (:func:`_list_representatives`) and
    drops them, so the batch, the plan, every chunk's id block and its
    fold shrink with the list count.  Each dropped list ``f'`` with
    representative ``r`` folds ``members1[f', 0]`` to the rest of its
    members and to ``members1[r, 0]``.  That adds no connection the full
    pass would not make: equal lists select the same top ids in every
    trial, and every list has at least ``s >= 1`` ids, so in any trial that
    ran both leaders link to the same ``m_0``.

    Rounds skip the lists the union has already settled
    (:class:`_UnionRounds`): the members and duplicate edges fold before
    the first round, and a list whose leader shares one root with all of
    its ids can add only self-loops from then on.  Fold labels depend only
    on the union of the folded edges, so neither the dedup nor the pruning
    changes them.

    ``indptr``/``elements`` are pass II's input (pass I's generator lists)
    and ``members1`` pass I's ``(k1, s1)`` members.  The input
    precondition is :func:`device_shingle_pass`'s: no id repeats within a
    segment.  Every schedule works: chunks run through :func:`_run_chunks`
    and fold under the fold's lock.

    Returns the fold of every chunk's edges (its :meth:`~PartitionFold.
    labels` are the partition), or ``None`` when the pass needs several
    batches — the caller then builds ``G_II`` with
    :func:`device_shingle_pass`.
    """
    inp = _compact_input(indptr, elements, config, device, trial_chunk,
                         max_elements, streams, dedup=True)
    breakdown = device.breakdown
    with breakdown.timing(BUCKET_CPU):
        fold = PartitionFold(n_vertices, breakdown, device.obs.tracer)
    if inp.valid_ids.size == 0 or not inp.chunks:
        return fold  # no second-level shingle: nothing to union
    if inp.batch_plan.n_batches != 1:
        return None
    # Before any round: every f's members join its leader, and each
    # dropped duplicate its own members and its representative's leader.
    with breakdown.timing(BUCKET_CPU):
        f_members = members1[inp.valid_ids]
    fold.fold(f_members[:, :1], f_members[:, 1:])
    if inp.dup_ids.size:
        with breakdown.timing(BUCKET_CPU):
            dup_members = members1[inp.dup_ids]
            dup_lead = dup_members[:, :1].copy()
            dup_members[:, 0] = members1[inp.rep_ids, 0]
        fold.fold(dup_lead, dup_members)
    rounds = _UnionRounds(device, fold, inp, f_members[:, 0], config, kernel)
    try:
        _run_chunks(inp.chunks, rounds.run, streams)
    finally:
        rounds.retire()
    with breakdown.timing(BUCKET_CPU):
        metrics = device.obs.metrics
        metrics.counter("shingle.pass2_rounds").add(rounds.n_rounds)
        metrics.counter("shingle.pass2_rounds_skipped").add(rounds.n_skipped)
        metrics.counter("shingle.pass2_active_lists").add(rounds.n_active)
    return fold


@dataclass
class _Selection:
    """One active list set on the device, with what its rounds share."""

    d_elems: DeviceBuffer      # the active lists' elements
    d_indptr: DeviceBuffer     # and their offsets
    tournament: TournamentPlan | None
    seg_ids: np.ndarray | None
    lead: np.ndarray           # (n, 1) leaders in segment order
    lead_perm: np.ndarray | None  # the same in the plan's column order
    users: int = 0             # rounds reading it now


class _UnionRounds:
    """Direct pass II's trial rounds over the lists not yet settled.

    Before each round the lists still unsettled after the previous one are
    pruned against the fold's current roots (:meth:`PartitionFold.prune`);
    the round then plans, uploads and shingles those only.  A plan and
    upload serve every round while the active set stays the same, and
    once no list is left each remaining round is skipped with no plan or
    upload.  :meth:`run` may be called from several streams: the pruning
    and set-up run under a lock, and an upload is freed once it is
    replaced and no round still reads it.  Counts the rounds run
    (``n_rounds``) and skipped (``n_skipped``) and the active lists summed
    over the rounds run (``n_active``).
    """

    def __init__(self, device: SimulatedDevice, fold: PartitionFold,
                 inp: _PassInput, leads: np.ndarray, config: PassConfig,
                 kernel: str) -> None:
        self._device = device
        self._fold = fold
        self._config = config
        self._kernel = kernel
        self._n_values = inp.n_values
        # The active lists as (leads, elements, indptr, lengths); None
        # once every list is settled.
        self._lists = (leads, inp.elements,
                       inp.batch_plan.batches[0].local_indptr, inp.lengths)
        self._current: _Selection | None = None
        self._check = debug_checks_enabled()
        self._lock = threading.Lock()
        self.n_rounds = self.n_skipped = self.n_active = 0

    def run(self, lo: int, hi: int) -> None:
        """One round over trials ``[lo, hi)``, or nothing when every list
        is settled."""
        with self._lock:
            selection, check = self._acquire()
        if selection is None:
            return
        config = self._config
        try:
            ids, perm = self._device.shingle_chunk_ids(
                selection.d_elems, selection.d_indptr,
                a=config.a_array[lo:hi], b=config.b_array[lo:hi],
                prime=config.prime, s=config.s, n_values=self._n_values,
                tournament=selection.tournament, kernel=self._kernel,
                seg_ids=selection.seg_ids, check=check,
                label=f"trials {lo}-{hi - 1}")
        finally:
            with self._lock:
                self._release(selection)
        # Columns are in the plan's order, or in segment order when no
        # tournament ran (a rejected plan, or the sort engine).  One trial
        # at a time: once the first trials have merged the big components,
        # most later edges map to self-loops and drop before the union.
        self._fold.fold_each(selection.lead if perm is None
                             else selection.lead_perm, ids)

    def _acquire(self) -> tuple[_Selection | None, bool]:
        """The selection this round shingles and whether the round runs
        the debug re-check (the first round that runs does)."""
        if self._lists is not None:
            lists = self._fold.prune(*self._lists)
            if lists[0] is not self._lists[0]:
                self.retire()
                self._lists = lists if lists[0].size else None
        if self._lists is None:
            self.n_skipped += 1
            return None, False
        if self._current is None:
            self._current = self._select(*self._lists)
        self._current.users += 1
        self.n_rounds += 1
        self.n_active += int(self._lists[0].size)
        check, self._check = self._check, False
        return self._current, check

    def _select(self, leads, elements, indptr, lengths) -> _Selection:
        """Plan and upload the active lists."""
        device = self._device
        with device.breakdown.timing(BUCKET_CPU):
            tournament, seg_ids = _plan_selection(
                elements, indptr, self._config.s, self._n_values,
                self._kernel, device.obs.tracer)
            lead = leads[:, None]
            lead_perm = (lead[tournament.perm] if tournament is not None
                         else None)
        return _Selection(device.upload(elements), device.upload(indptr),
                          tournament, seg_ids, lead, lead_perm)

    def _release(self, selection: _Selection) -> None:
        """A round is done reading ``selection``; free it if retired."""
        selection.users -= 1
        if selection.users == 0 and selection is not self._current:
            self._device.free(selection.d_elems, selection.d_indptr)

    def retire(self) -> None:
        """Drop the current selection (the active set changed, or every
        round is done), freeing it unless a round still reads it."""
        current, self._current = self._current, None
        if current is not None and current.users == 0:
            self._device.free(current.d_elems, current.d_indptr)


def _plan_selection(batch_elements, local_indptr, s: int, n_values: int,
                    kernel: str, tracer):
    """The ``(tournament, seg_ids)`` a single batch's chunk rounds share.

    Only the ``fused`` kernel runs a tournament, so only it builds the
    plan; whenever no plan will run (the sort, or a plan the geometry
    rejects) the per-element segment-id table is built instead, once per
    batch rather than once per chunk.  Traced as ``exec.select_plan``.
    """
    with tracer.span("exec.select_plan"):
        tournament = (build_tournament_plan(batch_elements, local_indptr, s,
                                            n_values)
                      if kernel == KERNEL_FUSED else None)
        seg_ids = (segment_element_ids(local_indptr) if tournament is None
                   else None)
    return tournament, seg_ids


def trial_chunks(c: int, trial_chunk: int) -> list[tuple[int, int]]:
    """Split ``c`` trials into ``[lo, hi)`` chunks of at most ``trial_chunk``."""
    if trial_chunk < 1:
        raise ValueError("trial_chunk must be >= 1")
    return [(lo, min(lo + trial_chunk, c)) for lo in range(0, c, trial_chunk)]


def _run_chunks(chunks, work, streams: int) -> None:
    """Execute ``work(lo, hi)`` for every trial chunk.

    Inline when ``streams == 1``, else on ``streams`` concurrent workers;
    the out-of-order-tolerant aggregation downstream makes completion
    order immaterial.
    """
    if streams == 1 or len(chunks) <= 1:
        for lo, hi in chunks:
            work(lo, hi)
        return
    # The prefix names each worker's spans' track ("stream_0", "stream_1",
    # ...) so concurrent kernel rounds render as separate trace tracks.
    with ThreadPoolExecutor(max_workers=streams,
                            thread_name_prefix="stream") as executor:
        futures = [executor.submit(work, lo, hi) for lo, hi in chunks]
        for future in futures:
            future.result()


def _single_batch_streaming(
    device: SimulatedDevice,
    elements: np.ndarray,
    batch,
    chunks,
    config: PassConfig,
    kernel: str,
    streams: int,
    lengths: np.ndarray,
    valid_ids: np.ndarray,
    n_seg: int,
    n_values: int,
    min_generators: int,
) -> PassResult | None:
    """The streaming hot path: one resident batch, per-chunk aggregation.

    A single batch cannot contain split lists, so every trial chunk's block
    aggregates independently the moment its kernels finish; the full
    ``(c, n, s)`` arrays are never materialized.

    Whenever the packed reduction keys fit in 63 bits the device
    additionally runs :func:`chunk_reduce` before the transfer: each chunk
    downloads a compacted distinct-shingle partial — already a
    :class:`PassResult` in wire form — instead of the raw ``(t, n, s)``
    occurrence block, so both the g2c bytes and the CPU aggregation shrink
    from O(t*n*s) to O(k_chunk*s).  The ``fused`` kernel's top-``s``
    selection is then the binned tournament, planned once here from the
    batch geometry (the eager select is the fallback for geometries the
    plan rejects); with debug checks on, each pass's first chunk is also
    checked against the eager select.  The sort never plans.  The reduce
    folds its fingerprints from one ``mix64`` table of the pass's ids.

    With ``min_generators`` above 1 the reduce keeps only the shingles of
    at least that many generators, so the rest are never permuted,
    downloaded or merged, and returns the filtered result.  That is exact
    unless two of the pass's runs share a fingerprint
    (:meth:`StreamingAggregator.distinct_runs`); then this returns
    ``None`` and the caller runs the full pass.  Without the reduce the
    result is the full one, for the caller to filter.
    """
    breakdown = device.breakdown
    tracer = device.obs.tracer
    s = config.s
    with breakdown.timing(BUCKET_CPU):
        a, b, salts = config.a_array, config.b_array, config.salts
        n_rows = batch.n_segments
        t_max = max((hi - lo for lo, hi in chunks), default=0)
        # The single batch is pre-compacted (every row has length >= s, no
        # sentinel padding), which is exactly what the on-device reduction
        # requires; the only other gate is the 63-bit key-packing bound.
        use_reduce = reduce_keys_fit(t_max, n_rows, s, n_values)
        batch_elements = batch.slice_elements(elements)
        if use_reduce:
            tournament, seg_ids_table = _plan_selection(
                batch_elements, batch.local_indptr, s, n_values, kernel,
                tracer)
            gen_ids = valid_ids.astype(np.uint32)
            # Each id is mixed once per pass, when the table is smaller
            # than the batch (as the fused hash's own table).
            id_mix = (mix64_array(np.arange(n_values, dtype=np.uint64))
                      if n_values <= batch_elements.size else None)
        else:
            tournament = None
            seg_ids_table = segment_element_ids(batch.local_indptr)
        aggregator = StreamingAggregator(s, n_seg)
        drop_runs = use_reduce and min_generators > 1
        host_pool = ScratchPool()  # reused download staging across chunks
        check_lo = chunks[0][0] if chunks and debug_checks_enabled() else None

    d_elems = device.upload(batch_elements)
    d_indptr = device.upload(batch.local_indptr)
    d_gens = device.upload(gen_ids) if use_reduce else None

    def run_chunk_reduce(lo: int, hi: int) -> None:
        *wire, run_keys = device.shingle_chunk_reduce(
            d_elems, d_indptr, d_gens,
            a=a[lo:hi], b=b[lo:hi], prime=config.prime, s=s,
            salts=salts[lo:hi], kernel=kernel, seg_ids=seg_ids_table,
            n_values=n_values, tournament=tournament,
            min_generators=min_generators, id_mix=id_mix,
            check=lo == check_lo,
            label=f"trials {lo}-{hi - 1}")
        with breakdown.timing(BUCKET_CPU), \
                tracer.span("exec.chunk_aggregate"):
            aggregator.add(lo, wire, run_keys if drop_runs else None)

    def run_chunk(lo: int, hi: int) -> None:
        t = hi - lo
        fps_buf = host_pool.take((t, n_rows), np.uint64)
        top_buf = host_pool.take((t, n_rows, s), np.uint64)
        device.shingle_chunk(
            d_elems, d_indptr,
            a=a[lo:hi], b=b[lo:hi], prime=config.prime, s=s,
            salts=salts[lo:hi], kernel=kernel, seg_ids=seg_ids_table,
            n_values=n_values,
            out_fps=fps_buf, out_top=top_buf, label=f"trials {lo}-{hi - 1}")
        with breakdown.timing(BUCKET_CPU), \
                tracer.span("exec.chunk_aggregate"):
            partial = aggregate_pass(fps_buf, top_buf, lengths, s,
                                     segment_ids=valid_ids, n_segments=n_seg)
            aggregator.add(lo, partial)
        host_pool.give(fps_buf, top_buf)

    try:
        _run_chunks(chunks, run_chunk_reduce if use_reduce else run_chunk,
                    streams)
    finally:
        device.free(d_elems, d_indptr)
        if d_gens is not None:
            device.free(d_gens)

    with breakdown.timing(BUCKET_CPU), tracer.span("exec.merge_partials"):
        if aggregator.n_partials == 0:
            # c == 0 degenerate case: an empty pass over n_seg segments.
            return aggregate_pass(np.empty((0, n_rows), dtype=np.uint64),
                                  np.empty((0, n_rows, s), dtype=np.uint64),
                                  lengths, s, segment_ids=valid_ids,
                                  n_segments=n_seg)
        n_distinct = aggregator.distinct_runs() if drop_runs else None
        if drop_runs and n_distinct is None:
            return None
        return aggregator.result(n_distinct)


def _multi_batch_accumulate(
    device: SimulatedDevice,
    elements: np.ndarray,
    batch_plan,
    chunks,
    config: PassConfig,
    kernel: str,
    streams: int,
    lengths: np.ndarray,
    valid_ids: np.ndarray,
    n_seg: int,
    n_values: int,
) -> PassResult:
    """General path: several batches, scatter into pass-level accumulators.

    Batches upload one at a time; each batch's trial chunks may run on
    concurrent streams.  The final aggregation happens once, after split
    lists are merged.
    """
    breakdown = device.breakdown
    s, c = config.s, config.c
    a, b, salts = config.a_array, config.b_array, config.salts

    with breakdown.timing(BUCKET_CPU):
        n_rows = valid_ids.size
        fps_all = np.zeros((c, n_rows), dtype=np.uint64)
        top_all = np.full((c, n_rows, s), SENTINEL, dtype=np.uint64)
        # compact row id -> list of (c, s) packed top-s arrays, one per chunk
        split_chunks: dict[int, list[np.ndarray]] = {}

    tracer = device.obs.tracer
    for bi, batch in enumerate(batch_plan):
        d_elems = device.upload(batch.slice_elements(elements))
        d_indptr = device.upload(batch.local_indptr)

        n_b = batch.n_segments
        with breakdown.timing(BUCKET_CPU):
            seg_ids_table = segment_element_ids(batch.local_indptr)
            fps_b = np.empty((c, n_b), dtype=np.uint64)
            top_b = np.empty((c, n_b, s), dtype=np.uint64)

        def run_chunk(lo: int, hi: int) -> None:
            device.shingle_chunk(
                d_elems, d_indptr,
                a=a[lo:hi], b=b[lo:hi], prime=config.prime, s=s,
                salts=salts[lo:hi], kernel=kernel, seg_ids=seg_ids_table,
                n_values=n_values,
                out_fps=fps_b[lo:hi], out_top=top_b[lo:hi],
                label=f"batch {bi} trials {lo}-{hi - 1}")

        _run_chunks(chunks, run_chunk, streams)
        device.free(d_elems, d_indptr)

        with breakdown.timing(BUCKET_CPU):
            whole = ~batch.is_split
            if whole.any():
                seg_ids = batch.segment_ids[whole]
                fps_all[:, seg_ids] = fps_b[:, whole]
                top_all[:, seg_ids, :] = top_b[:, whole, :]
            for local_idx in np.flatnonzero(batch.is_split):
                src = int(batch.segment_ids[local_idx])
                split_chunks.setdefault(src, []).append(top_b[:, local_idx, :])

    with breakdown.timing(BUCKET_CPU), \
            tracer.span("exec.aggregate", n_splits=len(split_chunks)):
        if split_chunks:
            merge_splits_into(fps_all, top_all, split_chunks, s, salts)
        result = aggregate_pass(fps_all, top_all, lengths, s,
                                segment_ids=valid_ids, n_segments=n_seg)
    return result
