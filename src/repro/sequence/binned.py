"""Length-binned batched Smith-Waterman: the alignment kernels.

pGraph keeps "the optimality-guaranteeing Smith-Waterman alignment
algorithm" on the CPU side and parallelizes it across processors.  This
module is the batched kernel both CPU backends run: the in-process
``local`` backend of :func:`repro.sequence.homology.build_homology_graph`
calls :func:`score_pairs_binned` on the
:func:`~repro.sequence.arena.flatten_sequences` CSR of the sequence set,
and process-pool workers call it on the shared arena's identical layout.

* Candidate pairs are grouped into *length bins*
  (:func:`plan_alignment_bins`) — dtype- and length-homogeneous groups
  whose padded DP rectangle wastes a bounded fraction of cells
  (``padding_waste``) — so the vectorized kernels keep their lanes full
  (MetaCache-GPU's length-aware batching, applied to pairs instead of
  reads).
* Each bin is *packed* (:func:`pack_bin_blocks`, a CSR gather into padded
  transposed blocks), then scored by its query-profile build and row-scan
  kernel, whose state comes from a
  :class:`~repro.device.memory.ScratchPool` — zero fresh allocations in
  the steady state.

The kernels are a *ramped-domain* reformulation of the host row scan
(:mod:`repro.sequence.smith_waterman`): keeping
``H'[j] = H[j] + step * j`` bakes the left-gap ramp into the score matrix,
so the per-row ramp-add / ramp-subtract / shift passes disappear and the
left-gap chain is a plain prefix max — the host kernels' own
:func:`~repro.sequence.smith_waterman.prefix_max`, a doubling scan that
alternates between the candidate row and the dead previous row so no pass
reads and writes overlapping memory.  Substitution scores come
from a per-bin *query profile* (Farrar's striped SW uses the same idea):
each bin builds, in one ``take``, the ramped matrix row of every residue
code against each of its distinct long sequences, so a DP row copies ``B``
contiguous profile rows and transposes them into the scan layout instead
of gathering every cell from the matrix.  Scores are bit-identical to
:func:`~repro.sequence.smith_waterman.batch_smith_waterman` /
:func:`~repro.sequence.smith_waterman.batch_smith_waterman_affine` for
both gap models: the per-cell candidates are the same integers shifted by
an invertible per-column offset, and the bin planner keys its dtype cuts
on the shared :func:`~repro.sequence.smith_waterman.dp_dtype`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.device.memory import ScratchPool
from repro.obs import get_obs
from repro.sequence.alphabet import ALPHABET_SIZE
from repro.sequence.scoring import BLOSUM62
# The pad/negative-floor constants and the padded score matrix are shared
# with the host kernels on purpose: bit-identity across backends depends on
# both paths saturating at the same values.
from repro.sequence.smith_waterman import (
    _I16_NEG,
    _score_matrix,
    dp_dtype,
    orient_pair_lengths,
    prefix_max,
)

#: Valid ``gap_model`` values of :func:`score_pairs_binned`.
GAP_MODELS = ("linear", "affine")


# --------------------------------------------------------------------- #
# Length bins
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


# --------------------------------------------------------------------- #
# Pack + profile + row-scan kernels
# --------------------------------------------------------------------- #

_PAD = ALPHABET_SIZE
_MAT_DIM = ALPHABET_SIZE + 1

#: Row bucket of the kernels' pooled state buffers: a bin's ``(lb, B)``
#: arrays are the first ``lb`` rows of ``(round_up(lb, ROW_BUCKET), B)``
#: blocks, so neighbouring bins share them.
ROW_BUCKET = 32

#: Byte budget of one bin's query profile (:func:`_query_profile`).  The
#: bin planner caps a bin's pairs so that its profile fits, even with no
#: long sequence repeated; bench-sized bins are far below the cap.
PROFILE_BYTES = 8 << 20


def _neg_floor(dtype: np.dtype):
    return dtype.type(_I16_NEG if dtype == np.int16 else -(1 << 26))


def ramped_score_matrix(matrix: np.ndarray, dtype: np.dtype,
                        step: int) -> np.ndarray:
    """Padded ``(22, 22)`` score matrix with the scan step baked in.

    In the ramped domain every diagonal candidate picks up exactly ``+step``
    relative to its predecessor column, so adding ``step`` to every matrix
    entry (pad entries included — they stay hugely negative) turns the
    per-row ramp bookkeeping into a no-op.
    """
    m = _score_matrix(matrix, dtype)
    m += dtype.type(step)
    return m


def pack_bin_blocks(residues: np.ndarray, offsets: np.ndarray,
                    short_ids: np.ndarray, long_ids: np.ndarray,
                    max_short: int, max_long: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather one bin's pairs from flat CSR into padded transposed blocks.

    Returns ``(arow, bt, long_col)``: ``arow`` is the short block
    ``(max_short, B)``; ``bt`` is ``(max_long, U)``, the bin's ``U``
    *distinct* long sequences (candidate pairs repeat a sequence, so ``U``
    is well below ``B``); ``long_col[p]`` is the column of ``bt`` holding
    pair ``p``'s long sequence.  Both blocks hold residue codes in
    ``residues``' dtype with PAD past each sequence's end; each is one
    strided gather, no per-pair Python loop.
    """
    arow = _gather_padded(residues, offsets, short_ids, max(max_short, 1))
    distinct, long_col = np.unique(long_ids, return_inverse=True)
    bt = _gather_padded(residues, offsets, distinct, max(max_long, 1))
    return arow, bt, long_col


def _gather_padded(residues: np.ndarray, offsets: np.ndarray,
                   ids: np.ndarray, width: int) -> np.ndarray:
    """``(width, B)`` column-per-sequence block, PAD-filled."""
    starts = offsets[ids]
    lens = offsets[ids + 1] - starts
    col = np.arange(width, dtype=np.int64)[:, None]
    mask = col < lens[None, :]
    idx = starts[None, :] + np.where(mask, col, 0)
    block = np.empty(idx.shape, dtype=residues.dtype)
    if residues.size:
        # mode="clip" skips the bounds check; masked-out lanes are
        # overwritten below, so their clipped reads are immaterial.
        np.take(residues, idx, out=block, mode="clip")
    block[~mask] = _PAD
    return block


def _query_profile(arow: np.ndarray, bt: np.ndarray, long_col: np.ndarray,
                   m: np.ndarray, pool: ScratchPool
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bin's query profile and its per-row index table, from ``pool``.

    ``prof[c * U + u, j] = m[c, bt[j, u]]``: row ``c * U + u`` holds the
    scores of residue code ``c`` against the whole of long sequence ``u`` —
    one ``take`` of the ramped matrix ``m`` builds all 22 symbol planes.
    ``rows[i, p] = arow[i, p] * U + long_col[p]`` then names the ``B``
    profile rows DP row ``i`` needs.  The profile lives in a flat scratch
    block (returned first, for :meth:`ScratchPool.give`).
    """
    la, n_pairs = arow.shape
    lb, n_long = bt.shape
    size = _MAT_DIM * n_long * lb
    # A power-of-two block: bins of similar size share one pooled buffer,
    # and the block stays close to what the bin touches.
    store = pool.take((1 << (size - 1).bit_length(),), m.dtype)
    prof = store[:size].reshape(_MAT_DIM, n_long, lb)
    np.take(m, bt.T, axis=1, out=prof, mode="clip")
    rows = pool.take((la, n_pairs), np.intp)
    # Widen before multiplying: a product in arow's uint8 residue dtype
    # wraps from U = 13 on (NumPy 1.x keeps that dtype for a scalar too).
    np.copyto(rows, arow)
    rows *= n_long
    rows += long_col
    return store, prof.reshape(_MAT_DIM * n_long, lb), rows


def _state_buffers(pool: ScratchPool, n: int, lb: int, n_pairs: int,
                   dtype: np.dtype) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """``n`` pooled ``(lb, B)`` state arrays, and the blocks behind them.

    Each block is ``(round_up(lb, ROW_BUCKET), B)`` and the kernel works on
    its first ``lb`` rows, so bins whose ``lb`` differ by a few residues
    reuse one set of buffers instead of each allocating its own.  The
    blocks (second list) go back to the pool.
    """
    rows = -(-lb // ROW_BUCKET) * ROW_BUCKET
    blocks = [pool.take((rows, n_pairs), dtype) for _ in range(n)]
    return [b[:lb] for b in blocks], blocks


def rowscan_linear_binned(arow: np.ndarray, bt: np.ndarray,
                          long_col: np.ndarray, matrix: np.ndarray, gap: int,
                          dtype: np.dtype, pool: ScratchPool) -> np.ndarray:
    """Ramped-domain linear-gap row scan over one packed bin.

    ``(arow, bt, long_col)`` is a :func:`pack_bin_blocks` bin.  State is
    ``H'[j] = H[j] + gap * j`` transposed to ``(lb, B)``:

    * diagonal candidate: ``H'[i-1][j-1] + (sub[j] + gap)`` — the ``+gap``
      is baked into the matrix (:func:`ramped_score_matrix`), and ``sub``
      is DP row ``i``'s ``B`` query-profile rows (:func:`_query_profile`)
      transposed straight into the candidate row;
    * up candidate: ``H'[i-1][j] - gap``;
    * zero candidate: the ramp itself, filled once per bin;
    * left chain: a plain prefix max
      (:func:`~repro.sequence.smith_waterman.prefix_max`), which
      alternates between the candidate row and the dead ``H'[i-1]``.

    ``hmax`` tracks the pre-scan candidates only — sound because an optimal
    local alignment never ends in a gap — and the final scores are
    ``max_j (hmax'[j] - gap * j)``.  Bit-identical to
    :func:`repro.sequence.smith_waterman._rowscan_linear`.
    """
    m = ramped_score_matrix(matrix, dtype, gap)
    la, n_pairs = arow.shape
    lb = bt.shape[0]
    g = dtype.type(gap)

    store, prof, rows = _query_profile(arow, bt, long_col, m, pool)
    (ramp, h_prev, hmax, tmp, picked), blocks = _state_buffers(
        pool, 5, lb, n_pairs, dtype)
    row_prof = picked.reshape(n_pairs, lb)    # leading rows: contiguous

    ramp[:] = (np.arange(lb) * gap).astype(dtype)[:, None]
    np.copyto(h_prev, ramp)
    np.copyto(hmax, ramp)
    for i in range(la):
        np.take(prof, rows[i], axis=0, out=row_prof, mode="clip")
        np.copyto(tmp, row_prof.T)                    # sub'
        np.add(tmp[1:], h_prev[:-1], out=tmp[1:])     # diagonal'
        np.subtract(tmp[0], g, out=tmp[0])            # j=0: prev H is 0
        np.subtract(h_prev, g, out=picked)            # up' (picked is free)
        np.maximum(tmp, picked, out=tmp)
        np.maximum(tmp, ramp, out=tmp)                # zero candidate
        np.maximum(hmax, tmp, out=hmax)
        scan = prefix_max(tmp, h_prev)
        h_prev, tmp = scan, (h_prev if scan is tmp else tmp)
    np.subtract(hmax, ramp, out=hmax)
    scores = hmax.max(axis=0).astype(np.int64) if la else \
        np.zeros(n_pairs, dtype=np.int64)
    pool.give(store, rows, *blocks)
    return scores


def rowscan_affine_binned(arow: np.ndarray, bt: np.ndarray,
                          long_col: np.ndarray, matrix: np.ndarray,
                          gap_open: int, gap_extend: int, dtype: np.dtype,
                          pool: ScratchPool) -> np.ndarray:
    """Ramped-domain Gotoh row scan over one packed bin.

    Same ramp trick with ``step = min(gap_open, gap_extend)`` (the F-chain
    decay rate, see :func:`repro.sequence.smith_waterman._rowscan_affine`)
    and the same per-bin query profile: ``E`` stays elementwise per row in
    the ramped domain, the F chain is ``F'[j] = scan'[j-1] - (gap_open -
    step)`` off the same prefix max.  The scan keeps ``T'`` (it becomes
    ``H'``) and alternates between the ``E`` scratch row and the dead
    ``H'[i-1]``.  Bit-identical to the host affine kernel.
    """
    step = min(gap_open, gap_extend)
    m = ramped_score_matrix(matrix, dtype, step)
    la, n_pairs = arow.shape
    lb = bt.shape[0]
    o = dtype.type(gap_open)
    e = dtype.type(gap_extend)
    st = dtype.type(step)
    fo = dtype.type(gap_open - step)

    store, prof, rows = _query_profile(arow, bt, long_col, m, pool)
    (ramp, h_prev, hmax, tmp, scratch, e_row, picked), blocks = \
        _state_buffers(pool, 7, lb, n_pairs, dtype)
    row_prof = picked.reshape(n_pairs, lb)

    ramp[:] = (np.arange(lb) * step).astype(dtype)[:, None]
    np.copyto(h_prev, ramp)
    np.copyto(hmax, ramp)
    e_row[:] = _neg_floor(dtype)
    for i in range(la):
        np.take(prof, rows[i], axis=0, out=row_prof, mode="clip")
        np.copyto(tmp, row_prof.T)                    # sub'
        # E'[i] = max(E'[i-1] - extend, H'[i-1] - open)
        np.subtract(e_row, e, out=e_row)
        np.subtract(h_prev, o, out=scratch)
        np.maximum(e_row, scratch, out=e_row)
        np.add(tmp[1:], h_prev[:-1], out=tmp[1:])     # diagonal'
        np.subtract(tmp[0], st, out=tmp[0])
        np.maximum(tmp, e_row, out=tmp)
        np.maximum(tmp, ramp, out=tmp)                # T'[i]
        np.maximum(hmax, tmp, out=hmax)
        scan = prefix_max(tmp, scratch, h_prev)
        # H' = max(T', F');  F'[j] = scan'[j-1] - (open - step).  With one
        # column there is no F and ``scan`` is ``tmp`` itself.
        np.subtract(scan[:-1], fo, out=scan[:-1])
        np.maximum(tmp[1:], scan[:-1], out=tmp[1:])
        h_prev, tmp = tmp, h_prev
    np.subtract(hmax, ramp, out=hmax)
    scores = hmax.max(axis=0).astype(np.int64) if la else \
        np.zeros(n_pairs, dtype=np.int64)
    pool.give(store, rows, *blocks)
    return scores


def _penalties(gap_model: str, gap: int, gap_open: int,
               gap_extend: int) -> tuple[int, ...]:
    return (gap,) if gap_model == "linear" else (gap_open, gap_extend)


def _plan_bins(pairs: np.ndarray, lengths: np.ndarray, matrix: np.ndarray,
               penalties: tuple[int, ...], *, max_pairs: int = 384,
               max_waste: float = 0.25, min_pairs: int = 32
               ) -> tuple[AlignmentBinPlan, np.ndarray, np.ndarray]:
    """Orient ``pairs`` short-first and plan their length bins.

    Returns ``(plan, short_ids, long_ids)``.  Bins are capped so that a
    bin's query profile fits :data:`PROFILE_BYTES` even when none of its
    long sequences repeats.
    """
    short_lens, long_lens = orient_pair_lengths(pairs, lengths)
    swap = lengths[pairs[:, 0]] > lengths[pairs[:, 1]]
    short_ids = np.where(swap, pairs[:, 1], pairs[:, 0])
    long_ids = np.where(swap, pairs[:, 0], pairs[:, 1])
    plan = plan_alignment_bins(
        short_lens, long_lens,
        lambda s, l: dp_dtype(s, l, matrix, penalties),
        max_pairs=max_pairs, max_waste=max_waste, min_pairs=min_pairs,
        max_block_bytes=PROFILE_BYTES // _MAT_DIM)
    return plan, short_ids, long_ids


def _score_packed(packed, dtype: np.dtype, matrix: np.ndarray,
                  gap_model: str, gap: int, gap_open: int, gap_extend: int,
                  pool: ScratchPool) -> np.ndarray:
    """One packed bin's scores under ``gap_model``."""
    arow, bt, long_col = packed
    if gap_model == "affine":
        return rowscan_affine_binned(arow, bt, long_col, matrix, gap_open,
                                     gap_extend, dtype, pool)
    return rowscan_linear_binned(arow, bt, long_col, matrix, gap, dtype,
                                 pool)


def score_pairs_binned(residues: np.ndarray, offsets: np.ndarray,
                       pairs: np.ndarray, matrix: np.ndarray = BLOSUM62, *,
                       gap_model: str = "linear", gap: int = 8,
                       gap_open: int = 11, gap_extend: int = 1,
                       pool: ScratchPool | None = None) -> np.ndarray:
    """Scores of ``pairs`` against a flat CSR sequence set, in-process.

    ``(residues, offsets)`` is the
    :func:`~repro.sequence.arena.flatten_sequences` layout, so process-pool
    workers score their shards straight from the shared arena.  ``pairs``
    is ``(n, 2)`` sequence ids; returns ``(n,)`` int64 scores,
    bit-identical to the host batched kernels under the same gap model.
    Bins are scored one after another.  An unknown ``gap_model``, a
    negative gap penalty or a pair id outside ``[0, len(offsets) - 1)``
    raises :class:`ValueError`.

    The bin plan's cell counts go to the ambient metrics registry
    (:func:`repro.obs.get_obs`) through :func:`record_align_counts`.
    """
    if gap_model not in GAP_MODELS:
        raise ValueError(f"unknown gap_model {gap_model!r}; "
                         f"expected one of {GAP_MODELS}")
    if min(gap, gap_open, gap_extend) < 0:
        raise ValueError("gap penalties must be >= 0")
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    n_seqs = offsets.size - 1
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n_seqs):
        raise ValueError(f"pair ids must lie in [0, {n_seqs})")
    plan, short_ids, long_ids = _plan_bins(
        pairs, np.diff(offsets), matrix,
        _penalties(gap_model, gap, gap_open, gap_extend))
    pool = pool if pool is not None else ScratchPool()
    out = np.zeros(pairs.shape[0], dtype=np.int64)
    for bin_ in plan.bins:
        members = plan.order[bin_.order_lo:bin_.order_hi]
        packed = pack_bin_blocks(residues, offsets, short_ids[members],
                                 long_ids[members], bin_.max_short,
                                 bin_.max_long)
        out[members] = _score_packed(packed, bin_.dtype, matrix, gap_model,
                                     gap, gap_open, gap_extend, pool)
    record_align_counts({"device.align.pairs": int(plan.order.size),
                         "device.align.bins": plan.n_bins,
                         "device.align.cells_actual": plan.actual_cells,
                         "device.align.cells_padded": plan.padded_cells})
    return out


def record_align_counts(counts: dict[str, int]) -> None:
    """Add bin-plan counts to the ambient registry's counters.

    ``counts`` maps ``device.align.{pairs,bins,cells_actual,cells_padded}``
    to increments.  The ``device.align.padding_waste`` gauge is then reset
    to the cumulative wasted-cell fraction across every plan so far.  Pool
    workers score under a private registry and ship its counters back, so
    the parent records a pooled run's counts with one call.
    """
    metrics = get_obs().metrics
    for name, value in counts.items():
        metrics.counter(name).add(value)
    padded = metrics.counter("device.align.cells_padded").value
    if padded:
        actual = metrics.counter("device.align.cells_actual").value
        metrics.gauge("device.align.padding_waste").set(
            round(1.0 - actual / padded, 6))
