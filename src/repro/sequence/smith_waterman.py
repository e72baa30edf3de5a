"""Smith-Waterman local alignment.

pGraph's homology detection performs "the optimality-guaranteeing
Smith-Waterman alignment algorithm [20] only on those identified pairs".
Several implementations, cross-validated by the test suite:

* :func:`sw_score_linear` — scalar reference, linear gap penalty;
* :func:`sw_score_affine` — scalar Gotoh, affine gaps (the richer model for
  users who want BLAST-like penalties);
* :func:`batch_smith_waterman` / :func:`batch_smith_waterman_affine` — the
  production path: a *row-scan* DP vectorized across a batch of pairs at
  once.  Bit-identical to the scalar references.

The batched kernels used to advance one anti-diagonal at a time (the
classic wavefront parallelization).  They now advance one *row* at a time:
the sequential left-gap dependency ``H[i,j] = max(..., H[i,j-1] - gap)``
unrolls exactly into a max-plus prefix scan,

    ``H[i,j] = max_{k<=j} (T[i,k] - gap * (j - k))``
             ``= accmax_j (T[i,k] + gap*k) - gap*j``,

where ``T`` collects the non-left candidates (zero, diagonal, up), so each
row is a handful of whole-chunk vector operations plus one prefix max
(:func:`prefix_max`, shared with the binned kernels of
:mod:`repro.sequence.binned`).  Compared
to the wavefront this runs
``min(la, lb)`` long contiguous iterations instead of ``la + lb`` ragged
ones, and the DP state is held in the narrowest integer dtype the score
bounds allow (int16 where penalties and lengths permit, else int32/int64).
The affine (Gotoh) ``F`` recurrence folds into the same scan with step
``min(gap_open, gap_extend)`` — see :func:`_rowscan_affine`.

All functions take integer-encoded sequences (see
:mod:`repro.sequence.alphabet`).
"""

from __future__ import annotations

import numpy as np

from repro.sequence.alphabet import ALPHABET_SIZE
from repro.sequence.scoring import BLOSUM62

#: Internal padding code for batched alignment; scores hugely negative so
#: padded cells can never contribute to a local alignment.
_PAD = ALPHABET_SIZE
_PAD_SCORE = -(1 << 20)

#: int16 DP is used when every intermediate fits these bounds.
_I16_SPAN = 28000
_I16_PAD_SCORE = -30000
_I16_NEG = -30000
_I16_MAX_PENALTY = 512


def _extended_matrix(matrix: np.ndarray) -> np.ndarray:
    """Scoring matrix with an extra PAD row/column (int32)."""
    m = np.full((ALPHABET_SIZE + 1, ALPHABET_SIZE + 1), _PAD_SCORE, dtype=np.int32)
    m[:ALPHABET_SIZE, :ALPHABET_SIZE] = matrix.astype(np.int32)
    return m


def sw_score_linear(a: np.ndarray, b: np.ndarray,
                    matrix: np.ndarray = BLOSUM62, gap: int = 8) -> int:
    """Scalar Smith-Waterman score with linear gap penalty ``gap``."""
    if gap < 0:
        raise ValueError("gap penalty must be >= 0")
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0
    prev = [0] * (lb + 1)
    best = 0
    mat = matrix.tolist()
    b_list = b.tolist()
    for i in range(1, la + 1):
        row_scores = mat[a[i - 1]]
        cur = [0] * (lb + 1)
        for j in range(1, lb + 1):
            h = prev[j - 1] + row_scores[b_list[j - 1]]
            up = prev[j] - gap
            left = cur[j - 1] - gap
            v = h if h >= up else up
            if left > v:
                v = left
            if v < 0:
                v = 0
            cur[j] = v
            if v > best:
                best = v
        prev = cur
    return best


def sw_score_affine(a: np.ndarray, b: np.ndarray,
                    matrix: np.ndarray = BLOSUM62,
                    gap_open: int = 11, gap_extend: int = 1) -> int:
    """Scalar Gotoh Smith-Waterman with affine gaps (open+extend model).

    A gap of length L costs ``gap_open + (L - 1) * gap_extend``.
    """
    if gap_open < 0 or gap_extend < 0:
        raise ValueError("gap penalties must be >= 0")
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0
    neg = -(1 << 30)
    h_prev = [0] * (lb + 1)
    e_prev = [neg] * (lb + 1)
    best = 0
    mat = matrix.tolist()
    b_list = b.tolist()
    for i in range(1, la + 1):
        row_scores = mat[a[i - 1]]
        h_cur = [0] * (lb + 1)
        e_cur = [neg] * (lb + 1)
        f = neg
        for j in range(1, lb + 1):
            e_cur[j] = max(e_prev[j] - gap_extend, h_prev[j] - gap_open)
            f = max(f - gap_extend, h_cur[j - 1] - gap_open)
            v = max(0, h_prev[j - 1] + row_scores[b_list[j - 1]], e_cur[j], f)
            h_cur[j] = v
            if v > best:
                best = v
        h_prev, e_prev = h_cur, e_cur
    return best


def sw_align(a: np.ndarray, b: np.ndarray, matrix: np.ndarray = BLOSUM62,
             gap: int = 8) -> tuple[int, list[tuple[int, int]]]:
    """Smith-Waterman with traceback (linear gaps).

    Returns ``(score, path)`` where ``path`` is the list of aligned index
    pairs ``(i, j)`` (0-based, match/mismatch steps only; gap steps are the
    jumps between consecutive pairs).
    """
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0, []
    h = np.zeros((la + 1, lb + 1), dtype=np.int32)
    scores = matrix.astype(np.int32)[np.asarray(a)[:, None], np.asarray(b)[None, :]]
    for i in range(1, la + 1):
        row = h[i]
        prev = h[i - 1]
        for j in range(1, lb + 1):
            row[j] = max(0, prev[j - 1] + scores[i - 1, j - 1],
                         prev[j] - gap, row[j - 1] - gap)
    best_pos = np.unravel_index(np.argmax(h), h.shape)
    score = int(h[best_pos])
    path: list[tuple[int, int]] = []
    i, j = int(best_pos[0]), int(best_pos[1])
    while i > 0 and j > 0 and h[i, j] > 0:
        if h[i, j] == h[i - 1, j - 1] + scores[i - 1, j - 1]:
            path.append((i - 1, j - 1))
            i, j = i - 1, j - 1
        elif h[i, j] == h[i - 1, j] - gap:
            i -= 1
        else:
            j -= 1
    path.reverse()
    return score, path


def self_score(seq: np.ndarray, matrix: np.ndarray = BLOSUM62) -> int:
    """Score of a sequence aligned to itself without gaps (the maximum
    attainable SW score), used to normalize pairwise scores."""
    seq = np.asarray(seq)
    if seq.size == 0:
        return 0
    return int(matrix[seq, seq].sum())


def batch_self_scores(sequences: list[np.ndarray],
                      matrix: np.ndarray = BLOSUM62,
                      block_size: int = 1024) -> np.ndarray:
    """Self-scores of many sequences, vectorized over padded blocks.

    Equal elementwise to calling :func:`self_score` per sequence; sequences
    are padded to the block maximum with a symbol whose diagonal score is
    zero, so padding never contributes.
    """
    n = len(sequences)
    out = np.empty(n, dtype=np.int64)
    diag = np.zeros(ALPHABET_SIZE + 1, dtype=np.int64)
    diag[:ALPHABET_SIZE] = matrix.diagonal().astype(np.int64)
    for lo in range(0, n, block_size):
        chunk = sequences[lo:lo + block_size]
        block = _pad_block([np.asarray(s) for s in chunk])
        out[lo:lo + len(chunk)] = diag[block].sum(axis=1)
    return out


# --------------------------------------------------------------------- #
# Batched row-scan kernels
# --------------------------------------------------------------------- #

def _pad_block(seqs: list[np.ndarray]) -> np.ndarray:
    width = max((s.size for s in seqs), default=0)
    block = np.full((len(seqs), max(width, 1)), _PAD, dtype=np.int64)
    for r, s in enumerate(seqs):
        block[r, :s.size] = s
    return block


def dp_dtype(max_short: int, max_long: int, matrix: np.ndarray,
             penalties: tuple[int, ...]) -> np.dtype:
    """Narrowest integer dtype whose range covers every DP intermediate.

    The SW score is bounded by ``matrix.max() * min(la, lb)`` (at most one
    match step per residue of the shorter sequence); the prefix scans add at
    most ``penalty * (lb - 1)`` on top.  The length-bin planner keys its
    dtype-homogeneous length bins on this exact function (memoized per
    geometry), so host and binned paths escalate int16 -> int32 -> int64 at
    identical geometries (a precondition of bit-identity testing).
    """
    smax = max(int(matrix.max()), 0) * max_short
    worst = max(penalties, default=0)
    span = smax + worst * (max_long + 1)
    if span < _I16_SPAN and all(p <= _I16_MAX_PENALTY for p in penalties):
        return np.dtype(np.int16)
    if span < (1 << 30):
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def orient_pair_lengths(pairs: np.ndarray,
                        lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair (short, long) sequence lengths, vectorized.

    The array sibling of :func:`_swap_short_long` for planners that only
    need geometry: ``pairs`` is ``(n, 2)`` sequence-id rows, ``lengths``
    the per-sequence length table.
    """
    la = lengths[pairs[:, 0]]
    lb = lengths[pairs[:, 1]]
    return np.minimum(la, lb), np.maximum(la, lb)


def _score_matrix(matrix: np.ndarray, dtype: np.dtype) -> np.ndarray:
    pad = _I16_PAD_SCORE if dtype == np.int16 else _PAD_SCORE
    m = np.full((ALPHABET_SIZE + 1, ALPHABET_SIZE + 1), pad, dtype=dtype)
    m[:ALPHABET_SIZE, :ALPHABET_SIZE] = matrix.astype(dtype)
    return m


def _swap_short_long(seqs_a: list[np.ndarray], seqs_b: list[np.ndarray],
                     ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Orient each pair so the first sequence is the shorter one.

    SW scores are symmetric, and the row-scan kernel loops over rows of the
    shorter sequence while vectorizing along the longer, so this minimizes
    Python-level iterations per chunk.
    """
    short = [x if x.size <= y.size else y for x, y in zip(seqs_a, seqs_b)]
    long_ = [y if x.size <= y.size else x for x, y in zip(seqs_a, seqs_b)]
    return short, long_


def prefix_max(x: np.ndarray, y: np.ndarray,
               z: np.ndarray | None = None) -> np.ndarray:
    """Running maximum of ``x`` down axis 0, by doubling between buffers.

    Equal to ``np.maximum.accumulate(x, axis=0)``, built from
    ``ceil(log2(rows))`` whole-array maximums: pass ``k`` writes
    ``max(src[k:], src[:-k])`` into the *other* buffer, so no ufunc ever
    reads and writes overlapping memory (NumPy would copy the input to a
    temporary on every such pass).  Rows ``[0, k)`` are already final in
    ``src``; the target only lacks ``[k/2, k)`` of them, because it was
    the source two passes earlier, so only those rows are copied across.

    Passes run ``x -> y -> z -> y -> z ...``.  ``z`` defaults to ``x``,
    which is then clobbered; pass a third buffer to keep ``x``.  All three
    must share ``x``'s shape and must not overlap each other (``z`` may
    *be* ``x``).  Returns the buffer holding the result: ``x`` itself when
    it has fewer than two rows, else ``y`` or ``z``.
    """
    n = x.shape[0]
    if n < 2:
        return x
    np.maximum(x[1:], x[:-1], out=y[1:])
    y[0] = x[0]
    src, dst = y, (x if z is None else z)
    k = 2
    while k < n:
        np.maximum(src[k:], src[:-k], out=dst[k:])
        # dst was last written two passes ago (shift k/4), so its rows
        # [0, k/2) are final -- except on the first write into ``z``.
        lo = k >> 1 if k > 2 else 0
        dst[lo:k] = src[lo:k]
        src, dst = dst, src
        k <<= 1
    return src


def _gather_blocks(seqs_short: list[np.ndarray],
                   seqs_long: list[np.ndarray], mat: np.ndarray):
    """Chunk tensors for the transposed row scan.

    Returns ``(arow, bt, mat_flat)`` where ``arow[i]`` holds the short
    sequences' row-``i`` symbols pre-scaled to row offsets into the
    flattened score matrix, and ``bt`` is the long block transposed to
    ``(Lb, B)`` so every DP array is contiguous along the scan axis.
    """
    a = _pad_block(seqs_short)          # (B, La) — row loop
    b = _pad_block(seqs_long)           # (B, Lb) — vector width
    arow = np.ascontiguousarray((a * mat.shape[1]).T.astype(np.intp))
    bt = np.ascontiguousarray(b.T.astype(np.intp))
    return arow, bt, mat.ravel()


def _rowscan_linear(seqs_short: list[np.ndarray], seqs_long: list[np.ndarray],
                    matrix: np.ndarray, gap: int) -> np.ndarray:
    """Row-scan linear-gap DP over one padded chunk; per-pair best scores.

    All DP state lives transposed as ``(Lb, B)`` so the left-chain prefix
    max runs down contiguous memory, and substitution scores come from one
    flat ``take`` per row.
    """
    n_pairs = len(seqs_short)
    if n_pairs == 0:
        return np.zeros(0, dtype=np.int64)
    la = max(s.size for s in seqs_short)
    dtype = dp_dtype(la, max(s.size for s in seqs_long), matrix, (gap,))
    mat = _score_matrix(matrix, dtype)
    arow, bt, mat_flat = _gather_blocks(seqs_short, seqs_long, mat)
    lb = bt.shape[0]
    ramp = (np.arange(lb) * gap).astype(dtype)[:, None]

    h_prev = np.zeros((lb, n_pairs), dtype=dtype)
    hmax = np.zeros((lb, n_pairs), dtype=dtype)
    shifted = np.zeros((lb, n_pairs), dtype=dtype)
    tmp = np.empty((lb, n_pairs), dtype=dtype)
    up = np.empty((lb, n_pairs), dtype=dtype)
    idx = np.empty((lb, n_pairs), dtype=np.intp)
    sub = np.empty((lb, n_pairs), dtype=dtype)
    for i in range(la):
        np.add(bt, arow[i][None, :], out=idx)
        np.take(mat_flat, idx, out=sub)
        shifted[1:] = h_prev[:-1]
        np.add(shifted, sub, out=tmp)                 # diagonal candidate
        np.subtract(h_prev, dtype.type(gap), out=up)  # up candidate
        np.maximum(tmp, up, out=tmp)
        np.maximum(tmp, dtype.type(0), out=tmp)       # T[i, :]
        np.maximum(hmax, tmp, out=hmax)
        # Left-chain scan: H[i,j] = accmax_j(T + gap*j) - gap*j.
        np.add(tmp, ramp, out=tmp)
        np.subtract(prefix_max(tmp, up), ramp, out=h_prev)
    return hmax.max(axis=0).astype(np.int64)


def _rowscan_affine(seqs_short: list[np.ndarray], seqs_long: list[np.ndarray],
                    matrix: np.ndarray, gap_open: int,
                    gap_extend: int) -> np.ndarray:
    """Row-scan Gotoh DP over one padded chunk; per-pair best scores.

    ``E`` (gap in the long sequence) is elementwise per row.  ``F`` (gap in
    the short sequence) unrolls into the same max-plus prefix scan as the
    linear left chain: expanding ``F[j] = max(F[j-1]-e, H[j-1]-o)`` with
    ``H[j-1] = max(T[j-1], F[j-1])`` gives ``F[j] = max(T[j-1]-o,
    F[j-1]-min(e,o))``, hence ``F[j] = max_{k<j} (T[k] - o - min(e,o) *
    (j-1-k))`` exactly, for either ordering of the two penalties.

    Layout matches :func:`_rowscan_linear`: state is ``(Lb, B)`` so the F
    scan runs down contiguous memory.
    """
    n_pairs = len(seqs_short)
    if n_pairs == 0:
        return np.zeros(0, dtype=np.int64)
    la = max(s.size for s in seqs_short)
    step = min(gap_open, gap_extend)
    dtype = dp_dtype(la, max(s.size for s in seqs_long), matrix,
                     (gap_open, gap_extend))
    mat = _score_matrix(matrix, dtype)
    neg = dtype.type(_I16_NEG if dtype == np.int16 else -(1 << 26))
    arow, bt, mat_flat = _gather_blocks(seqs_short, seqs_long, mat)
    lb = bt.shape[0]
    ramp = (np.arange(lb) * step).astype(dtype)[:, None]
    ramp_open = ramp[:-1] + dtype.type(gap_open)

    h_prev = np.zeros((lb, n_pairs), dtype=dtype)
    e_row = np.full((lb, n_pairs), neg, dtype=dtype)
    hmax = np.zeros((lb, n_pairs), dtype=dtype)
    shifted = np.zeros((lb, n_pairs), dtype=dtype)
    tmp = np.empty((lb, n_pairs), dtype=dtype)
    scratch = np.empty((lb, n_pairs), dtype=dtype)
    idx = np.empty((lb, n_pairs), dtype=np.intp)
    sub = np.empty((lb, n_pairs), dtype=dtype)
    for i in range(la):
        np.add(bt, arow[i][None, :], out=idx)
        np.take(mat_flat, idx, out=sub)
        # E[i, :] = max(E[i-1, :] - extend, H[i-1, :] - open)
        np.subtract(e_row, dtype.type(gap_extend), out=e_row)
        np.subtract(h_prev, dtype.type(gap_open), out=scratch)
        np.maximum(e_row, scratch, out=e_row)
        shifted[1:] = h_prev[:-1]
        np.add(shifted, sub, out=tmp)
        np.maximum(tmp, e_row, out=tmp)
        np.maximum(tmp, dtype.type(0), out=tmp)       # T[i, :]
        np.maximum(hmax, tmp, out=hmax)
        # F scan, then H = max(T, F); F[0] never beats T[0] >= 0.  The
        # old H row is dead by now and serves as the scan's second buffer.
        np.add(tmp, ramp, out=scratch)
        scan = prefix_max(scratch, h_prev)
        np.subtract(scan[:-1], ramp_open, out=scan[:-1])
        h_prev, tmp = tmp, h_prev
        np.maximum(h_prev[1:], scan[:-1], out=h_prev[1:])
    return hmax.max(axis=0).astype(np.int64)


def _chunk_order(seqs_short: list[np.ndarray],
                 seqs_long: list[np.ndarray]) -> np.ndarray:
    """Length-sorted processing order so chunks pad homogeneously.

    Sorting by (long, short) length keeps both the vector width and the row
    count of each chunk tight around its members.
    """
    return np.lexsort(([s.size for s in seqs_short],
                       [s.size for s in seqs_long]))


def batch_smith_waterman(seqs_a: list[np.ndarray], seqs_b: list[np.ndarray],
                         matrix: np.ndarray = BLOSUM62, gap: int = 8,
                         chunk_size: int = 256) -> np.ndarray:
    """Scores of ``len(seqs_a)`` alignments, vectorized across pairs.

    Pairs are grouped into length-sorted chunks; within a chunk the
    row-scan DP advances with whole-chunk array operations (see the module
    docstring).  Equal elementwise to calling :func:`sw_score_linear` per
    pair.
    """
    if len(seqs_a) != len(seqs_b):
        raise ValueError("seqs_a and seqs_b must have equal length")
    if gap < 0:
        raise ValueError("gap penalty must be >= 0")
    n = len(seqs_a)
    out = np.zeros(n, dtype=np.int64)
    short, long_ = _swap_short_long(
        [np.asarray(a, dtype=np.uint8) for a in seqs_a],
        [np.asarray(b, dtype=np.uint8) for b in seqs_b])
    order = _chunk_order(short, long_)
    for lo in range(0, n, chunk_size):
        idx = order[lo:lo + chunk_size]
        out[idx] = _rowscan_linear([short[i] for i in idx],
                                   [long_[i] for i in idx], matrix, gap)
    return out


def batch_smith_waterman_affine(seqs_a: list[np.ndarray],
                                seqs_b: list[np.ndarray],
                                matrix: np.ndarray = BLOSUM62,
                                gap_open: int = 11, gap_extend: int = 1,
                                chunk_size: int = 256) -> np.ndarray:
    """Affine-gap (Gotoh) scores, vectorized across pairs.

    Bit-identical to :func:`sw_score_affine` per pair; see
    :func:`_rowscan_affine` for how the three DP matrices collapse into one
    elementwise pass plus one prefix scan per row.
    """
    if len(seqs_a) != len(seqs_b):
        raise ValueError("seqs_a and seqs_b must have equal length")
    if gap_open < 0 or gap_extend < 0:
        raise ValueError("gap penalties must be >= 0")
    n = len(seqs_a)
    out = np.zeros(n, dtype=np.int64)
    short, long_ = _swap_short_long(
        [np.asarray(a, dtype=np.uint8) for a in seqs_a],
        [np.asarray(b, dtype=np.uint8) for b in seqs_b])
    order = _chunk_order(short, long_)
    for lo in range(0, n, chunk_size):
        idx = order[lo:lo + chunk_size]
        out[idx] = _rowscan_affine([short[i] for i in idx],
                                   [long_[i] for i in idx],
                                   matrix, gap_open, gap_extend)
    return out
