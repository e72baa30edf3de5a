"""Device-offloaded batched Smith-Waterman.

pGraph keeps "the optimality-guaranteeing Smith-Waterman alignment
algorithm" on the CPU side and parallelizes it across processors; this
module moves the same batched row-scan DP onto the simulated device, the
way the shingling hot loop already runs there.  The structure mirrors the
shingling offload end to end:

* the sequence set is uploaded **once** as a flat CSR residue buffer
  (:func:`repro.sequence.arena.flatten_sequences`) — the exact wire layout
  the process-pool arena uses, so host and device paths share one
  representation;
* candidate pairs are grouped into dtype- and length-homogeneous bins
  (:func:`repro.device.batching.plan_alignment_bins`) so the padded DP
  rectangle wastes a bounded fraction of cells (``padding_waste``);
* each bin runs *pack* (a CSR gather into padded transposed blocks) then
  its query-profile build and *rowscan* kernels, whose state lives in the
  device
  :class:`~repro.device.memory.ScratchPool` — zero fresh allocations in
  the steady state — with every launch costed through the
  :class:`~repro.device.timingmodels.KernelCostModel` and every transfer
  through the PCIe model;
* on one device the bins are double-buffered: bin *i+1* packs on a copy
  thread while bin *i* scores (:func:`~repro.core.execplan.double_buffer`);
  a :class:`~repro.device.group.DeviceGroup` shards them across its
  members instead (:func:`~repro.device.group.run_sharded`).  Both
  schedules are bit-identical.

The kernels themselves are a *ramped-domain* reformulation of the host
row scan (:mod:`repro.sequence.smith_waterman`): keeping
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
:func:`score_pairs_binned` runs the same kernels in-process, without the
device; process-pool workers score their shards with it.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.execplan import double_buffer
from repro.device.batching import AlignmentBin, AlignmentBinPlan, plan_alignment_bins
from repro.device.device import SimulatedDevice
from repro.device.group import DeviceGroup, run_sharded
from repro.device.memory import ScratchPool
from repro.sequence.alphabet import ALPHABET_SIZE
from repro.sequence.arena import flatten_sequences
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
from repro.util.timer import BUCKET_GPU

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

    The binned profile kernels without the device around them: no
    transfers, cost accounting or copy thread, bins scored one after
    another.  ``(residues, offsets)`` is the
    :func:`~repro.sequence.arena.flatten_sequences` layout, so process-pool
    workers score their shards straight from the shared arena.  Scores are
    bit-identical to :meth:`DeviceAligner.batch_scores`.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
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
    return out


class DeviceAligner:
    """Batched Smith-Waterman scoring on a :class:`SimulatedDevice`.

    Usage mirrors the shingling driver: :meth:`upload_sequences` moves the
    flat residue buffer across the link once, then :meth:`batch_scores`
    bins, packs and scores any number of pair sets against it.  Every
    launch/transfer is accounted on the device (wall + modeled buckets,
    kernel counters, tracer spans), and ``device.obs.metrics`` accumulates
    the alignment-specific series (``device.align.*``) the benchmarks and
    the Chrome trace read.
    """

    def __init__(self, device: SimulatedDevice | DeviceGroup | None = None, *,
                 matrix: np.ndarray = BLOSUM62,
                 max_pairs_per_bin: int = 384,
                 max_waste: float = 0.25,
                 min_pairs_per_bin: int = 32) -> None:
        # A DeviceGroup distributes bins across its members (bins write
        # disjoint output slices, so they are already independent units of
        # work); ``self.device`` stays a plain SimulatedDevice — member 0 —
        # so single-device callers see the historical surface.
        if isinstance(device, DeviceGroup):
            self.group: DeviceGroup | None = device
            self.device = device.members[0]
        else:
            self.group = None
            self.device = device if device is not None else SimulatedDevice()
        self.matrix = matrix
        self.max_pairs_per_bin = max_pairs_per_bin
        self.max_waste = max_waste
        self.min_pairs_per_bin = min_pairs_per_bin
        # Per-member device buffers (one entry per group member; a single
        # device is the one-member degenerate case).
        self._d_residues: list = []
        self._d_offsets: list = []
        self._lengths: np.ndarray | None = None
        #: Bin plan of the most recent :meth:`batch_scores` call.
        self.last_plan: AlignmentBinPlan | None = None

    @property
    def _members(self) -> list[SimulatedDevice]:
        return self.group.members if self.group is not None else [self.device]

    # ------------------------------------------------------------------ #
    # Sequence residency
    # ------------------------------------------------------------------ #

    def upload_sequences(self, sequences: list[np.ndarray]) -> None:
        """Upload the sequence set as flat CSR (h2d-accounted), replacing
        any previously resident set.

        With a group the flat buffers cross the PCIe link once and fan out
        peer-to-peer (:meth:`DeviceGroup.broadcast`).  Bin packs gather
        straight from the uint8 residue buffer: the kernels use residue
        codes only as indices into the query profile and its rows.
        """
        residues, offsets = flatten_sequences(
            [np.asarray(s, dtype=np.uint8) for s in sequences])
        self.release()
        self._lengths = np.diff(offsets)
        if self.group is not None and self.group.n_devices > 1:
            self._d_residues = self.group.broadcast(residues)
            self._d_offsets = self.group.broadcast(offsets)
        else:
            self._d_residues = [self.device.upload(residues)]
            self._d_offsets = [self.device.upload(offsets)]

    def release(self) -> None:
        """Free the device-resident sequence buffers."""
        for buf in self._d_residues + self._d_offsets:
            buf.free()
        self._d_residues = []
        self._d_offsets = []
        self._lengths = None

    def __enter__(self) -> "DeviceAligner":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #

    def batch_scores(self, pairs: np.ndarray, *, gap_model: str = "linear",
                     gap: int = 8, gap_open: int = 11,
                     gap_extend: int = 1) -> np.ndarray:
        """Smith-Waterman scores of ``pairs`` rows against the resident set.

        ``pairs`` is ``(n, 2)`` sequence ids.  Returns ``(n,)`` int64
        scores, bit-identical to the host batched kernels under the same
        gap model.  On one device the bins are double-buffered (bin *i+1*
        packs while bin *i* scores); on a group they are statically
        assigned to the member with the least accumulated padded-cell load
        and scored by one driver thread per device — bins write disjoint
        ``out`` slices, so neither schedule can reorder anything
        observable.
        """
        if not self._d_residues:
            raise RuntimeError("no sequences resident; call upload_sequences")
        if gap_model not in ("linear", "affine"):
            raise ValueError(f"unknown gap_model {gap_model!r}")
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        n = pairs.shape[0]
        out = np.zeros(n, dtype=np.int64)
        if n == 0:
            self.last_plan = AlignmentBinPlan(
                bins=[], order=np.empty(0, dtype=np.int64))
            return out

        plan, short_ids, long_ids = _plan_bins(
            pairs, self._lengths, self.matrix,
            _penalties(gap_model, gap, gap_open, gap_extend),
            max_pairs=self.max_pairs_per_bin, max_waste=self.max_waste,
            min_pairs=self.min_pairs_per_bin)
        self.last_plan = plan

        members = self._members
        multi = len(members) > 1

        # The pair table rides to the device like any other kernel input
        # (peer-fanned on a group: every member scores against it).
        d_pairs = (self.group.broadcast(pairs) if multi
                   else [self.device.upload(pairs)])

        def pack(bin_: AlignmentBin, dev: int = 0):
            return self._pack_bin(bin_, plan.order, short_ids, long_ids, dev)

        def score(bin_: AlignmentBin, packed, dev: int = 0) -> None:
            self._score_bin(bin_, packed, plan, gap_model, gap, gap_open,
                            gap_extend, out, dev)

        try:
            if multi:
                run_sharded(
                    plan.bins, [bin_.padded_cells for bin_ in plan.bins],
                    lambda bin_, dev: score(bin_, pack(bin_, dev), dev),
                    len(members))
            else:
                for bin_, packed in double_buffer(plan.bins, pack):
                    score(bin_, packed)
        finally:
            for buf in d_pairs:
                buf.free()

        self._record_plan_metrics(plan)
        return out

    # ------------------------------------------------------------------ #
    # Per-bin stages
    # ------------------------------------------------------------------ #

    def _pack_bin(self, bin_: AlignmentBin, order: np.ndarray,
                  short_ids: np.ndarray, long_ids: np.ndarray,
                  dev: int = 0):
        device = self._members[dev]
        t0 = time.perf_counter()
        members = order[bin_.order_lo:bin_.order_hi]
        residues = self._d_residues[dev].device_view()
        offsets = self._d_offsets[dev].device_view()
        packed = pack_bin_blocks(residues, offsets, short_ids[members],
                                 long_ids[members], bin_.max_short,
                                 bin_.max_long)
        arow, bt, _ = packed
        t1 = time.perf_counter()
        device.breakdown.add(BUCKET_GPU, t1 - t0)
        n_el = arow.size + bt.size
        modeled = device.spec.kernels.seconds_for("transform", n_el)
        device._record_kernel("sw_pack", n_el, modeled)
        device.breakdown.add_modeled(BUCKET_GPU, modeled)
        return packed

    def _score_bin(self, bin_: AlignmentBin, packed,
                   plan: AlignmentBinPlan, gap_model: str, gap: int,
                   gap_open: int, gap_extend: int, out: np.ndarray,
                   dev: int = 0) -> None:
        device = self._members[dev]
        bt = packed[1]
        t0 = time.perf_counter()
        d_work = device.memory.adopt(bt)      # bin working set, device-resident
        scores = _score_packed(packed, bin_.dtype, self.matrix, gap_model,
                               gap, gap_open, gap_extend, device.scratch)
        d_scores = device.memory.adopt(scores)
        t1 = time.perf_counter()
        device.breakdown.add(BUCKET_GPU, t1 - t0)
        cells = bin_.padded_cells
        profile_el = _MAT_DIM * bt.size
        profile_s = device.spec.kernels.seconds_for("transform", profile_el)
        rowscan_s = device.spec.kernels.seconds_for("transform", cells)
        scan_s = device.spec.kernels.seconds_for("scan", cells)
        device._record_kernel("sw_profile", profile_el, profile_s)
        device._record_kernel("sw_rowscan", cells, rowscan_s)
        device._record_kernel("sw_scan", cells, scan_s)
        device.breakdown.add_modeled(BUCKET_GPU,
                                     profile_s + rowscan_s + scan_s)
        tracer = device.obs.tracer
        if tracer.enabled:
            tracer.record(
                "device.align_bin", t0, t1, proc=device.proc,
                attrs={"n_pairs": bin_.n_pairs, "la": bin_.max_short,
                       "lb": bin_.max_long, "dtype": bin_.dtype.name,
                       "padding_waste": round(bin_.padding_waste, 4)})
        host_scores = device.download(d_scores)
        device.free(d_work, d_scores)
        out[plan.order[bin_.order_lo:bin_.order_hi]] = host_scores

    def _record_plan_metrics(self, plan: AlignmentBinPlan) -> None:
        metrics = self.device.obs.metrics
        padded = metrics.counter("device.align.cells_padded")
        actual = metrics.counter("device.align.cells_actual")
        padded.add(plan.padded_cells)
        actual.add(plan.actual_cells)
        metrics.counter("device.align.pairs").add(int(plan.order.size))
        metrics.counter("device.align.bins").add(plan.n_bins)
        # Cumulative wasted-cell fraction across every plan so far.
        if padded.value:
            metrics.gauge("device.align.padding_waste").set(
                round(1.0 - actual.value / padded.value, 6))
        if self.group is not None:
            self.group.sync_metrics()
        else:
            self.device.sync_metrics()
