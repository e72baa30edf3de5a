"""Data-parallel device kernels.

Each function here is the NumPy analogue of one GPU kernel launch from
Figure 4 of the paper: whole-array operations over a *batch* of adjacency
lists stored as one contiguous buffer plus an ``indptr`` boundary array —
never a per-element interpreted loop.  The kernels are pure functions over
ndarrays; :class:`repro.device.device.SimulatedDevice` wraps them with device
buffers, timing, and cost-model accounting.

All hot-path kernels accept optional ``out=`` destinations and (where they
need internal working arrays) a :class:`repro.device.memory.ScratchPool`, so
the steady state of a shingling pass performs **zero** fresh large
allocations: every round reuses the previous round's buffers, exactly as a
real CUDA pipeline would reuse device allocations across kernel launches.
The defaults (no pool, no ``out``) preserve the original allocate-per-call
behaviour for tests and one-off callers.

Kernel inventory
----------------
``affine_hash``
    ``thrust::transform`` analogue: ``h_j(v) = (A_j*v + B_j) mod P`` for a
    chunk of trials ``j`` at once (one row per trial).
``pack_pairs`` / ``unpack_pairs``
    Pack (hash, id) into one uint64 so a single segmented min yields both the
    minimum hash and its original element (the host-side min-hash
    sketches' key; the device rebuilds the same pairs with
    :func:`recover_top_ids`).
``fused_hash``
    Fused hash+pack: because the affine map is injective mod P, the uint32
    hash alone *is* the packed pair — one transform launch writes one
    ``(T, nnz)`` uint32 key buffer instead of the uint64 hash matrix plus the
    uint64 packed matrix, and :func:`recover_top_ids` inverts the map on the
    small top-``s`` block afterwards.
``chunk_reduce``
    On-device sort-dedup reduction: groups one trial chunk's ``(t, n)``
    shingle occurrences by packed ``(trial, member-tuple, column)`` keys so
    only the ``k`` distinct shingles (fingerprint-sorted, with first-
    occurrence members and ready-made generator lists) ship back to the
    host.
``segmented_sort_top_s``
    ``thrust::sort`` analogue: stable segmented sort, then take each
    segment's first ``s`` entries.  Reference implementation; the sort is a
    single 2-D composite-key argsort (value pass then stable segment pass),
    not a per-trial interpreted loop.
``segmented_select_top_s``
    Optimized selection: ``s`` rounds of segmented min (``ufunc.reduceat``)
    with masking.  O(s*n) instead of O(n log n); produces identical output.
``fold_fingerprints``
    ``thrust::transform`` analogue folding each segment's top-``s`` ids into
    a 64-bit shingle fingerprint.
``build_tournament_plan`` / ``tournament_table`` / ``run_tournament``
    The fused reduce path's top-``s`` selection: per-segment min
    tournaments over a trial-minor ``(n_values + 1, T)`` hash table, with
    segments binned by padded length and each bin's rows tree-reduced in
    blocks.  The plan is built once per pass from the batch
    geometry; equal to ``fused_hash`` + ``segmented_select_top_s`` whenever
    no id repeats within a segment (which the plan build proves).
``segment_element_ids``
    Auxiliary iota: the segment id of every element — computed once per
    batch and reused by every selection round.
``agg_merge``
    Inter-pass aggregation: merge the per-chunk partials from
    ``chunk_reduce`` into one pass result (stable argsort over the
    concatenated fingerprints, then one gather of members and generator
    runs; an exact group-by union only on a cross-chunk fingerprint
    collision).  Runs on the host, in the StreamingAggregator: the paper
    gives inter-pass aggregation to the CPU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device.memory import ScratchPool
from repro.util.mixhash import fold_fingerprint_array

#: Sentinel marking "no element": larger than any packed (hash, id) pair.
SENTINEL = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Sentinel for the fused uint32 key lane: larger than any hash (< P < 2^32).
SENTINEL32 = np.uint32(0xFFFFFFFF)

#: Bits reserved for the element id in a packed pair.
_ID_BITS = np.uint64(32)
_ID_MASK = np.uint64((1 << 32) - 1)


def _take(pool: ScratchPool | None, shape, dtype):
    """A scratch buffer from the pool, or a fresh allocation without one."""
    if pool is not None:
        return pool.take(shape, dtype)
    return np.empty(shape, dtype=dtype)


def _give(pool: ScratchPool | None, *arrays: np.ndarray) -> None:
    if pool is not None:
        pool.give(*arrays)


def affine_hash(values: np.ndarray, a: np.ndarray, b: np.ndarray, prime: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """Min-wise hash a flat element buffer under a chunk of trials.

    Parameters
    ----------
    values:
        ``(nnz,)`` element ids (all ``< prime``).
    a, b:
        ``(T,)`` per-trial hash coefficients.
    prime:
        The modulus ``P``.
    out:
        Optional ``(T, nnz)`` uint64 destination; when given, no temporaries
        are allocated (the computation runs in place on ``out``).

    Returns
    -------
    np.ndarray
        ``(T, nnz)`` uint64 hashed values, row ``t`` = trial ``t``.
    """
    v = np.asarray(values, dtype=np.uint64)
    a = np.asarray(a, dtype=np.uint64).reshape(-1, 1)
    b = np.asarray(b, dtype=np.uint64).reshape(-1, 1)
    if prime <= 0 or prime > (1 << 31) + (1 << 20):
        # Products a*v must stay below 2**64: both factors < ~2**31.5.
        raise ValueError(f"prime {prime} outside supported range")
    with np.errstate(over="ignore"):
        if out is None:
            return (a * v + b) % np.uint64(prime)
        np.multiply(a, v, out=out)
        np.add(out, b, out=out)
        np.remainder(out, np.uint64(prime), out=out)
        return out


def pack_pairs(hashed: np.ndarray, ids: np.ndarray,
               out: np.ndarray | None = None,
               checked: bool = False) -> np.ndarray:
    """Pack ``(hash, id)`` into ``hash << 32 | id`` (uint64).

    Requires ``hash < 2**31`` (guaranteed by the prime bound) and
    ``id < 2**32``.  Ordering packed pairs orders primarily by hash, with the
    id as a deterministic tiebreaker — though within one adjacency list ties
    cannot occur because the affine map is injective mod P.

    ``out`` may alias ``hashed`` (the shift runs in place).  ``checked=True``
    skips the per-call id-range scan for callers that validated the element
    buffer once per batch.
    """
    ids = np.asarray(ids, dtype=np.uint64)
    if not checked and ids.size and int(ids.max()) >> 32:
        raise ValueError("element ids must fit in 32 bits")
    hashed = np.asarray(hashed, dtype=np.uint64)
    if out is None:
        return (hashed << _ID_BITS) | ids
    np.left_shift(hashed, _ID_BITS, out=out)
    np.bitwise_or(out, ids, out=out)
    return out


def unpack_pairs(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_pairs`: returns ``(hash, id)`` arrays."""
    packed = np.asarray(packed, dtype=np.uint64)
    return packed >> _ID_BITS, packed & _ID_MASK


def fused_hash(values: np.ndarray, a: np.ndarray, b: np.ndarray, prime: int,
               out: np.ndarray | None = None,
               scratch: ScratchPool | None = None,
               n_values: int | None = None) -> np.ndarray:
    """Fused hash+pack: one uint32 key buffer replaces hash + packed matrices.

    The affine map ``h(v) = (a*v + b) mod P`` is injective for ``a`` in
    ``[1, P)`` and ``v < P``, so within one adjacency list (distinct ids) the
    hash alone orders exactly like the packed ``(hash, id)`` pair — ties are
    impossible — and the id is recoverable as ``v = (h - b) * a^{-1} mod P``
    (:func:`recover_top_ids`).  One ``(T, nnz)`` uint32 pass therefore does
    the work of :func:`affine_hash` + :func:`pack_pairs` with half the key
    bytes for the selection kernel.

    When the id range ``n_values`` is smaller than the element buffer, the
    hash is evaluated once per distinct id into a ``(T, n_values)`` lookup
    table and gathered (each table row is hit ``nnz / n_values`` times);
    otherwise the buffer is hashed directly.  Both give identical keys.
    """
    v = np.asarray(values)
    a = np.asarray(a, dtype=np.uint64).reshape(-1, 1)
    b = np.asarray(b, dtype=np.uint64).reshape(-1, 1)
    if prime <= 0 or prime > (1 << 31) + (1 << 20):
        raise ValueError(f"prime {prime} outside supported range")
    t, nnz = a.shape[0], v.size
    if out is None:
        out = np.empty((t, nnz), dtype=np.uint32)
    if nnz == 0:
        return out
    if n_values is None:
        n_values = int(v.max()) + 1
    p64 = np.uint64(prime)
    with np.errstate(over="ignore"):
        if n_values <= nnz:
            table64 = _take(scratch, (t, n_values), np.uint64)
            np.multiply(a, np.arange(n_values, dtype=np.uint64), out=table64)
            np.add(table64, b, out=table64)
            np.remainder(table64, p64, out=table64)
            table32 = _take(scratch, (t, n_values), np.uint32)
            np.copyto(table32, table64, casting="unsafe")
            np.take(table32, v, axis=1, out=out, mode="clip")
            _give(scratch, table64, table32)
        else:
            v64 = v.view(np.uint64) if v.dtype == np.int64 else v.astype(np.uint64)
            h64 = _take(scratch, (t, nnz), np.uint64)
            np.multiply(a, v64, out=h64)
            np.add(h64, b, out=h64)
            np.remainder(h64, p64, out=h64)
            np.copyto(out, h64, casting="unsafe")
            _give(scratch, h64)
    return out


def check_hash_coefficients(a: np.ndarray, prime: int) -> list[int]:
    """The multipliers ``a`` as ints; raises ``ValueError`` unless every
    one lies in ``(0, prime)``, where the fused hash is invertible."""
    coeffs = [int(x) for x in np.asarray(a).reshape(-1).tolist()]
    if not all(0 < x < prime for x in coeffs):
        raise ValueError(f"hash coefficients must lie in (0, {prime}) to be "
                         f"invertible")
    return coeffs


def recover_top_ids(top_keys: np.ndarray, a: np.ndarray, b: np.ndarray,
                    prime: int, out_ids: np.ndarray | None = None,
                    out_packed: np.ndarray | None = None,
                    scratch: ScratchPool | None = None,
                    has_sentinels: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Invert the fused hash on a top-``s`` block: keys -> ids (and pairs).

    ``d = (h + P - b) mod P``; ``v = d * a^{-1} mod P`` — the inverse exists
    because P is prime and ``0 < a < P``; any other coefficient raises
    ``ValueError`` (a zero one maps every id to ``b`` and loses them).
    Runs only on the small ``(t, n_seg, s)`` selection output, not the
    ``(t, nnz)`` element buffer.  ``SENTINEL32`` keys map to id
    ``0xFFFFFFFF``, so the rebuilt packed pair (``hash << 32 | id``,
    written to ``out_packed`` when given) is exactly ``SENTINEL`` —
    bit-identical to the padding of a select over packed uint64 pairs.

    Callers that guarantee a fully-compacted block (every segment has at
    least ``s`` elements, so no padding exists) pass
    ``has_sentinels=False`` to skip the sentinel mask-and-patch passes.
    """
    top_keys = np.asarray(top_keys, dtype=np.uint32)
    coeffs = check_hash_coefficients(a, prime)
    a_inv = np.array([pow(x, prime - 2, prime) for x in coeffs],
                     dtype=np.uint64).reshape(
                         (len(coeffs),) + (1,) * (top_keys.ndim - 1))
    b_neg = ((prime - np.asarray(b, dtype=np.int64)) % prime).astype(
        np.uint64).reshape(a_inv.shape)
    p64 = np.uint64(prime)
    if out_ids is None:
        out_ids = np.empty(top_keys.shape, dtype=np.uint64)
    if has_sentinels:
        mask = _take(scratch, top_keys.shape, np.bool_)
        np.equal(top_keys, SENTINEL32, out=mask)
    np.copyto(out_ids, top_keys, casting="unsafe")
    with np.errstate(over="ignore"):
        np.add(out_ids, b_neg, out=out_ids)
        # (h + b_neg) * a_inv is congruent mod P to the two-remainder
        # sequence; when the unreduced product provably fits 64 bits
        # (including sentinel keys up to 2**32-1, whose garbage product is
        # masked over below) one remainder pass over the block suffices.
        if (0xFFFFFFFF + prime) * (prime - 1) >= 1 << 64:
            np.remainder(out_ids, p64, out=out_ids)
        np.multiply(out_ids, a_inv, out=out_ids)
        np.remainder(out_ids, p64, out=out_ids)
    if has_sentinels:
        np.copyto(out_ids, _ID_MASK, where=mask)
    if out_packed is not None:
        np.copyto(out_packed, top_keys, casting="unsafe")
        np.left_shift(out_packed, _ID_BITS, out=out_packed)
        np.bitwise_or(out_packed, out_ids, out=out_packed)
    if has_sentinels:
        _give(scratch, mask)
    return out_ids, out_packed


def segment_element_ids(indptr: np.ndarray) -> np.ndarray:
    """Segment id of every element position (``[0,0,..,1,1,..]``).

    One gather table, computed once per batch; every selection round expands
    per-segment minima to element positions through it with ``np.take``.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    return np.repeat(np.arange(indptr.size - 1, dtype=np.int64),
                     np.diff(indptr))


def _segment_geometry(indptr: np.ndarray, nnz: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Common precomputation: (starts, lengths, empty_mask).

    ``starts`` is ``indptr[:-1]`` unmodified; trailing empty segments have
    ``start == nnz``, which is NOT a valid ``reduceat`` index — callers must
    restrict reduceat to the prefix of segments with ``start < nnz`` (they
    form a suffix of empties, handled via the empty mask).  Clipping the
    invalid starts instead would silently shrink the *previous* segment's
    reduceat window.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
        raise ValueError("invalid indptr for segment buffer")
    lengths = np.diff(indptr)
    return indptr[:-1], lengths, lengths == 0


def _key_rows(keys) -> tuple[np.ndarray, np.generic]:
    """``(T, nnz)`` uint32 or uint64 key rows (other dtypes become uint64)
    and the dtype's all-ones sentinel."""
    keys = np.asarray(keys)
    if keys.dtype not in (np.dtype(np.uint32), np.dtype(np.uint64)):
        keys = keys.astype(np.uint64)
    if keys.ndim == 1:
        keys = keys[np.newaxis, :]
    return keys, keys.dtype.type(np.iinfo(keys.dtype).max)


def segmented_select_top_s(packed: np.ndarray, indptr: np.ndarray, s: int,
                           scratch: ScratchPool | None = None,
                           seg_ids: np.ndarray | None = None,
                           out: np.ndarray | None = None,
                           consume: bool = False) -> np.ndarray:
    """Top-``s`` smallest keys per segment via s rounds of segmented min.

    Parameters
    ----------
    packed:
        ``(T, nnz)`` keys, one row per trial — uint64 packed pairs or the
        fused kernel's uint32 hashes (any other dtype is cast to uint64).
        Not modified unless ``consume`` is set.
    indptr:
        ``(n_seg + 1,)`` segment boundaries within each row.
    s:
        Number of minima to extract per segment.
    scratch:
        Optional scratch pool for the working copy, per-round minima, the
        expanded-minimum matrix, and the equality mask — with it, repeated
        calls of the same geometry allocate nothing.
    seg_ids:
        Optional precomputed :func:`segment_element_ids` of ``indptr``.
    out:
        Optional ``(T, n_seg, s)`` destination matching ``packed``'s dtype.
    consume:
        Destroy ``packed`` in place instead of working on a copy — the fused
        path sets this because its key buffer is not needed afterwards,
        skipping one full ``(T, nnz)`` copy per round.

    Returns
    -------
    np.ndarray
        ``(T, n_seg, s)``; position ``[t, i, r]`` holds the r-th smallest
        key of segment ``i`` under trial ``t``, or the dtype's all-ones
        sentinel when the segment has fewer than ``r+1`` elements.
    """
    packed, sentinel = _key_rows(packed)
    n_trials, nnz = packed.shape
    starts, lengths, empty = _segment_geometry(indptr, nnz)
    n_seg = lengths.size
    if out is None:
        out = np.empty((n_trials, n_seg, s), dtype=packed.dtype)
    out[...] = sentinel
    if nnz == 0 or n_seg == 0:
        return out
    # Trailing empty segments have start == nnz (invalid for reduceat);
    # they are a suffix, so reduce over the valid prefix only.
    n_valid = int(np.searchsorted(starts, nnz, side="left"))
    if consume:
        work = packed
    else:
        work = _take(scratch, (n_trials, nnz), packed.dtype)
        np.copyto(work, packed)
    segmin = _take(scratch, (n_trials, n_seg), packed.dtype)
    if s > 1:
        if seg_ids is None:
            seg_ids = segment_element_ids(indptr)
        expanded = _take(scratch, (n_trials, nnz), packed.dtype)
        mask = _take(scratch, (n_trials, nnz), np.bool_)
    for r in range(s):
        np.minimum.reduceat(work, starts[:n_valid], axis=1,
                            out=segmin[:, :n_valid])
        if n_valid < n_seg:
            segmin[:, n_valid:] = sentinel
        segmin[:, empty] = sentinel
        out[:, :, r] = segmin
        if r + 1 == s:
            break
        # Mask each extracted minimum so the next round finds the runner-up.
        # mode="clip" selects the fast gather path (indices are in range by
        # construction; "raise" would fall back to a slow checked loop).
        np.take(segmin, seg_ids, axis=1, out=expanded, mode="clip")
        np.equal(work, expanded, out=mask)
        np.copyto(work, sentinel, where=mask)
    if not consume:
        _give(scratch, work)
    _give(scratch, segmin)
    if s > 1:
        _give(scratch, expanded, mask)
    return out


def segmented_sort_top_s(packed: np.ndarray, indptr: np.ndarray, s: int,
                         seg_ids: np.ndarray | None = None,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Reference implementation: full segmented sort, then gather top ``s``.

    Mirrors the paper's Thrust pipeline (transform then ``thrust::sort`` of
    the whole batch with segment keys).  The segmented sort is composed as a
    least-significant-key radix pass over the whole 2-D trial block: a
    stable argsort by pair value, then a stable argsort by segment id of the
    value-ordered positions — one composite-key sort for *all* trials, with
    no per-trial interpreted loop.  Keys, dtype and sentinel padding are
    those of :func:`segmented_select_top_s`, and so is the output whenever
    no key repeats within a segment (the sort keeps repeats, the masking
    select drops them).
    """
    packed, sentinel = _key_rows(packed)
    n_trials, nnz = packed.shape
    indptr = np.asarray(indptr, dtype=np.int64)
    _, lengths, _ = _segment_geometry(indptr, nnz)
    n_seg = lengths.size
    if out is None:
        out = np.empty((n_trials, n_seg, s), dtype=packed.dtype)
    out[...] = sentinel
    if nnz == 0 or n_seg == 0:
        return out
    if seg_ids is None:
        seg_ids = segment_element_ids(indptr)
    take = np.minimum(lengths, s)
    # Destination coordinates of the top-s entries of every segment.
    dst_seg = np.repeat(np.arange(n_seg, dtype=np.int64), take)
    dst_rank = _ranks_within(take)
    src_pos = np.repeat(indptr[:-1], take) + dst_rank
    # Stable LSD composition == np.lexsort((packed[t], seg_ids)) per trial.
    value_order = np.argsort(packed, axis=1, kind="stable")
    segment_keys = seg_ids[value_order]
    segment_order = np.argsort(segment_keys, axis=1, kind="stable")
    order = np.take_along_axis(value_order, segment_order, axis=1)
    sorted_rows = np.take_along_axis(packed, order, axis=1)
    out[:, dst_seg, dst_rank] = sorted_rows[:, src_pos]
    return out


def _ranks_within(counts: np.ndarray) -> np.ndarray:
    """``[0..c0-1, 0..c1-1, ...]`` for a counts array (vectorized iota)."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(counts)
    idx = np.arange(total, dtype=np.int64)
    seg_start = np.repeat(ends - counts, counts)
    return idx - seg_start


@dataclass(frozen=True)
class TournamentPlan:
    """Per-pass constants of the binned tournament selection.

    ``bins`` holds ``(pos0, idx)`` entries: ``idx`` is an ``(L, m)`` gather
    table whose row ``j`` maps bin columns to element values (pad slots
    point at the sentinel column ``n_values`` of the extended hash table);
    the bin's segments occupy permuted columns ``pos0:pos0+m``.  ``perm``
    maps permuted columns to original segments; ``perm_cols`` /
    ``col_to_row`` let :func:`chunk_reduce` consume the permuted block
    directly — packed keys carry original column ids, so its global sort
    restores the unpermuted order without an inverse scatter.
    """

    n_seg: int
    n_values: int
    iota: np.ndarray          # (n_values+1,) uint64
    bins: list
    perm: np.ndarray          # (n_seg,) int64, permuted -> original
    perm_cols: np.ndarray     # (n_seg,) uint64 original column ids
    col_to_row: np.ndarray    # (n_seg,) int64, original -> permuted


def distinct_within_segments(elements: np.ndarray, indptr: np.ndarray,
                              n_values: int) -> bool:
    """True when no id repeats inside any segment (all must be non-empty).

    Adjacency lists usually arrive sorted, so an O(nnz) "strictly rising
    within every segment" scan settles most inputs; only when it fails does
    one packed ``(segment, value)`` sort decide.
    """
    if elements.size < 2:
        return True
    rising = elements[1:] > elements[:-1]
    # Pairs that straddle a segment boundary do not count.
    rising[indptr[1:-1] - 1] = True
    if rising.all():
        return True
    lengths = np.diff(indptr)
    packed = np.repeat(np.arange(lengths.size, dtype=np.uint64), lengths)
    packed *= np.uint64(n_values)
    packed += elements.astype(np.uint64)
    packed.sort()
    return not np.any(packed[1:] == packed[:-1])


def build_tournament_plan(elements: np.ndarray, indptr: np.ndarray,
                          s: int, n_values: int) -> TournamentPlan | None:
    """Bin one batch geometry for :func:`run_tournament`.

    Segments are grouped by ``ceil(log2(length))`` so each bin pads to at
    most twice its shortest member.  Returns ``None`` (the caller falls back
    to the eager kernel sequence) when the geometry is out of scope: a
    segment shorter than ``s`` (sentinel padding would be needed) or an id
    repeated within a segment (the tournament computes multiset top-``s``,
    the eager masking select deduplicates — only distinctness makes them
    provably identical for every hash coefficient).
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    elements = np.asarray(elements, dtype=np.int64)
    lengths = np.diff(indptr)
    n_seg = lengths.size
    if n_seg == 0 or elements.size == 0 or int(lengths.min()) < max(s, 1):
        return None
    if not distinct_within_segments(elements, indptr, n_values):
        return None

    # frexp's exponent of (length - 1) is its bit length: the log2 bucket.
    buckets = np.frexp(lengths - 1)[1]
    perm = np.argsort(buckets, kind="stable")
    col_to_row = np.empty(n_seg, dtype=np.int64)
    col_to_row[perm] = np.arange(n_seg, dtype=np.int64)
    sorted_buckets = buckets[perm]
    edges = np.concatenate(
        ([0], np.flatnonzero(sorted_buckets[1:] != sorted_buckets[:-1]) + 1,
         [n_seg]))
    # Every element in bin order, with its rank inside its segment.
    perm_lengths = lengths[perm]
    rank = _ranks_within(perm_lengths)
    values = elements[np.repeat(indptr[perm], perm_lengths) + rank]
    ends = np.cumsum(perm_lengths)
    bins = []
    for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
        seg_lengths = perm_lengths[lo:hi]
        m = hi - lo
        idx = np.full((int(seg_lengths.max()), m), n_values, dtype=np.int64)
        a, b = int(ends[lo] - seg_lengths[0]), int(ends[hi - 1])
        col = np.repeat(np.arange(m, dtype=np.int64), seg_lengths)
        idx.reshape(-1)[rank[a:b] * m + col] = values[a:b]
        bins.append((lo, idx))
    return TournamentPlan(
        n_seg=n_seg, n_values=n_values,
        iota=np.arange(n_values + 1, dtype=np.uint64), bins=bins, perm=perm,
        perm_cols=perm.astype(np.uint64), col_to_row=col_to_row)


#: Element budget of one tournament block.  A bin of ``m`` segments folds
#: ``max(1, TOURNAMENT_BLOCK // (m * t))`` gather rows per step, so a tall,
#: narrow bin (a hub of degree ~10k) tree-reduces thousands of rows per
#: step while a wide bin still folds one row at a time, and a tall bin's
#: block registers stay about one L2 cache (256 KiB of uint32 keys) each.
TOURNAMENT_BLOCK = 1 << 16


def tournament_table(plan: TournamentPlan, a: np.ndarray, b: np.ndarray,
                     prime: int, scratch: ScratchPool | None = None
                     ) -> np.ndarray:
    """The tournament's hash table: ``(n_values + 1, T)`` uint32 keys.

    Row ``v`` holds every trial's ``(a*v + b) mod P``; the extra last row
    is the ``SENTINEL32`` that pad slots gather.  Trial-minor, so one
    element's gather fetches one contiguous row of all ``T`` keys.
    """
    a = np.asarray(a, dtype=np.uint64).reshape(-1, 1)
    b = np.asarray(b, dtype=np.uint64).reshape(-1, 1)
    nv = plan.n_values
    # The arithmetic runs trial-major (long inner loops); the narrowing
    # copy transposes.
    table64 = _take(scratch, (a.shape[0], nv + 1), np.uint64)
    with np.errstate(over="ignore"):
        np.multiply(a, plan.iota, out=table64)
        np.add(table64, b, out=table64)
        np.remainder(table64, np.uint64(prime), out=table64)
    table = _take(scratch, (nv + 1, a.shape[0]), np.uint32)
    np.copyto(table.T, table64, casting="unsafe")
    table[nv] = SENTINEL32
    _give(scratch, table64)
    return table


def _merge_top(regs: list, a: slice, b: slice, la: int, lb: int, s: int,
               tmp: np.ndarray) -> int:
    """Merge ascending key lists ``a`` and ``b`` (lengths ``la``, ``lb``)
    into ``a``'s rows; returns the merged length ``min(la + lb, s)``.

    ``regs[r][rows]`` is rank ``r`` of the lists at ``rows``.  Rank ``k``
    of the union is the least, over every split taking ``i`` keys from
    ``a`` and ``k + 1 - i`` from ``b``, of the larger of the two prefixes'
    last keys.  It reads only ranks ``<= k`` of either list, so writing
    ranks from the top down can overwrite ``a`` in place.
    """
    n = min(la + lb, s)
    for k in range(n - 1, -1, -1):
        dst = regs[k][a]
        # The split taking k + 1 keys from a is a's own rank k, which dst
        # already holds; a shorter a leaves dst empty for the first term.
        empty = la <= k
        for i in range(min(k, la), max(0, k + 1 - lb) - 1, -1):
            if i:
                term = dst if empty else tmp
                np.maximum(regs[i - 1][a], regs[k - i][b], out=term)
            else:
                term = regs[k][b]
                if empty:
                    np.copyto(dst, term)
            if not empty:
                np.minimum(dst, term, out=dst)
            empty = False
    return n


def _tree_top(regs: list, lo: int, k: int, s: int, tmp: np.ndarray,
              fill) -> int:
    """Reduce the ``k`` one-key lists in rows ``lo:lo+k`` to one ascending
    top-``s`` list in row ``lo`` by log-depth pairwise merges; returns its
    length.  An odd level leaves its middle row unpaired and pads its new
    ranks with ``fill``."""
    length = 1
    while k > 1:
        pairs, half = k // 2, (k + 1) // 2
        new = min(2 * length, s)
        if k % 2:
            for r in range(length, new):
                regs[r][lo + pairs].fill(fill)
        _merge_top(regs, slice(lo, lo + pairs), slice(lo + half, lo + k),
                   length, length, s, tmp[:pairs])
        length, k = new, half
    return length


def run_tournament(plan: TournamentPlan, table: np.ndarray, s: int,
                   out: np.ndarray, scratch: ScratchPool | None = None
                   ) -> np.ndarray:
    """Binned min tournaments: every segment's ascending top-``s`` keys.

    ``table`` is :func:`tournament_table`'s output.  Writes ``(T, n_seg,
    s)`` keys into ``out`` in the plan's bin-permuted segment order
    (``out[:, i]`` belongs to segment ``plan.perm[i]``).  Each bin gathers
    blocks of rows (see :data:`TOURNAMENT_BLOCK`) into ``s`` stacked
    ``(rows, m, T)`` rank registers, tree-reduces every block to one
    sorted top-``s`` list and merges that into the running list in row 0.
    The registers of every bin are views of ``s + 1`` flat buffers sized
    for the largest bin.
    """
    t = table.shape[1]
    fill = np.iinfo(table.dtype).max
    bins, size, tmp_size = [], 0, 0
    for pos0, idx in plan.bins:
        rows, m = idx.shape
        block = max(1, TOURNAMENT_BLOCK // (m * t))
        # The first block also fills row 0; later ones land in rows 1..
        first = min(rows, block + 1)
        half = max(first // 2, 1)
        bins.append((pos0, idx, block, first, half))
        size = max(size, first * m * t)
        tmp_size = max(tmp_size, half * m * t)
    flat = [_take(scratch, (size,), table.dtype) for _ in range(s)]
    flat_tmp = _take(scratch, (tmp_size,), table.dtype)
    for pos0, idx, block, first, half in bins:
        rows, m = idx.shape
        regs = [f[:first * m * t].reshape(first, m, t) for f in flat]
        tmp = flat_tmp[:half * m * t].reshape(half, m, t)
        np.take(table, idx[:first], axis=0, out=regs[0], mode="clip")
        length = _tree_top(regs, 0, first, s, tmp, fill)
        for j in range(first, rows, block):
            k = min(block, rows - j)
            np.take(table, idx[j:j + k], axis=0, out=regs[0][1:1 + k],
                    mode="clip")
            got = _tree_top(regs, 1, k, s, tmp, fill)
            length = _merge_top(regs, slice(0, 1), slice(1, 2), length, got,
                                s, tmp[:1])
        for r in range(s):
            out[:, pos0:pos0 + m, r] = regs[r][0].T
    _give(scratch, flat_tmp, *flat)
    return out


def fold_fingerprints(top_ids: np.ndarray, salts: np.ndarray,
                      scratch: ScratchPool | None = None,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Fold each segment's top-``s`` ids into a shingle fingerprint.

    Parameters
    ----------
    top_ids:
        ``(T, n_seg, s)`` ids in min-hash order.
    salts:
        ``(T,)`` per-trial salts.
    scratch, out:
        Optional scratch pool / destination for allocation-free folding.

    Returns
    -------
    np.ndarray
        ``(T, n_seg)`` uint64 fingerprints.
    """
    top_ids = np.asarray(top_ids, dtype=np.uint64)
    salts = np.asarray(salts, dtype=np.uint64).reshape(-1, 1)
    return fold_fingerprint_array(top_ids, salts, scratch=scratch, out=out)


def reduce_keys_fit(n_trials: int, n_seg: int, s: int, n_values: int) -> bool:
    """True when :func:`chunk_reduce`'s packed key fits 63 bits.

    The key is ``(trial * n_values**s + member_tuple) * n_seg + column``;
    evaluated in exact Python integers so enormous ``n_values**s`` cannot
    overflow the check itself.
    """
    if n_values < 1:
        return False
    return n_trials * (n_values ** s) * max(n_seg, 1) < (1 << 63)


def chunk_reduce(top_ids: np.ndarray, salts: np.ndarray, gen_ids: np.ndarray,
                 n_values: int, scratch: ScratchPool | None = None,
                 col_ids: np.ndarray | None = None,
                 col_to_row: np.ndarray | None = None,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """On-device sort-dedup of one trial chunk's shingle occurrences.

    Groups the ``(t, n)`` occurrences by their identity — the ordered member
    tuple within a trial — using one packed-key quicksort (the ``uint64``
    key packs trial, base-``n_values`` member tuple, and column), mirroring
    the packed-key technique of the host-side generator sort.  Because the
    column occupies the low bits, equal-identity runs come out contiguous
    AND ascending by column without needing a stable sort, so the first
    element of each run is the first occurrence and each run's column list
    is already the sorted, duplicate-free generator list.  Fingerprints are
    folded only for the ``k`` distinct shingles.

    The caller must guarantee :func:`reduce_keys_fit` and that ``top_ids``
    contains no sentinel entries (all segments have length >= s — the device
    driver pre-compacts inputs this way).

    Parameters
    ----------
    top_ids:
        ``(t, n, s)`` uint64 member ids in min-hash order.
    salts:
        ``(t,)`` uint64 per-trial fingerprint salts.
    gen_ids:
        ``(n,)`` original segment id of each column, monotone increasing
        (the driver's ``valid_ids`` table, device-resident).
    n_values:
        Exclusive upper bound on member ids (the tuple-key base).
    col_ids, col_to_row:
        Support for *column-permuted* ``top_ids`` blocks (the tournament's
        bin order): ``col_ids`` (``(n,)`` uint64) supplies the ORIGINAL column
        id of each permuted position for the packed key (instead of
        ``arange(n)``), and ``col_to_row`` (``(n,)`` int64) maps an original
        column back to its permuted row for the member gather.  Because the
        key then carries original ids, the global sort canonicalizes order
        and every output — including collision-merge tiebreaks, which use
        original flat positions — is bit-identical to the unpermuted call.

    Returns
    -------
    (fps, members, gen_counts, gens):
        ``fps`` — ``(k,)`` uint64, strictly ascending; ``members`` —
        ``(k, s)`` uint32 first-occurrence member rows; ``gen_counts`` —
        ``(k,)`` uint32 generator-list lengths; ``gens`` — concatenated
        uint32 generator lists in ``fps`` order (``t*n`` entries total).
        Exactly what host-side ``aggregate_pass`` would distill from the
        dense ``(t, n)`` arrays, at O(k) download size.
    """
    top_ids = np.asarray(top_ids, dtype=np.uint64)
    salts = np.asarray(salts, dtype=np.uint64)
    gen_ids = np.asarray(gen_ids)
    t, n, s = top_ids.shape
    total = t * n
    if total == 0:
        return (np.empty(0, dtype=np.uint64), np.empty((0, s), dtype=np.uint32),
                np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.uint32))
    m_pow_s = np.uint64(n_values ** s)
    n64 = np.uint64(n)
    key = _take(scratch, (t, n), np.uint64)
    np.copyto(key, top_ids[..., 0])
    with np.errstate(over="ignore"):
        for j in range(1, s):
            np.multiply(key, np.uint64(n_values), out=key)
            np.add(key, top_ids[..., j], out=key)
        np.add(key, (np.arange(t, dtype=np.uint64) * m_pow_s).reshape(t, 1),
               out=key)
        np.multiply(key, n64, out=key)
        np.add(key,
               np.arange(n, dtype=np.uint64) if col_ids is None else col_ids,
               out=key)
    skey = key.reshape(total)
    skey.sort(kind="quicksort")

    # Run boundaries: adjacent positions with a different (trial, tuple) part.
    gkey_buf = _take(scratch, (t, n), np.uint64)
    gkey = gkey_buf.reshape(total)
    np.floor_divide(skey, n64, out=gkey)
    is_start = np.empty(total, dtype=bool)
    is_start[0] = True
    np.not_equal(gkey[1:], gkey[:-1], out=is_start[1:])
    run_start = np.flatnonzero(is_start)
    k = run_start.size
    counts = np.empty(k, dtype=np.int64)
    np.subtract(run_start[1:], run_start[:-1], out=counts[:-1])
    counts[-1] = total - run_start[-1]

    # First occurrence of each run = its smallest column (low key bits).
    start_keys = skey[run_start]
    col = (start_keys % n64).astype(np.int64)
    trial = (gkey[run_start] // m_pow_s).astype(np.int64)
    flatpos = trial * n + col
    gather_pos = flatpos if col_to_row is None else trial * n + col_to_row[col]
    # ``take`` along axis 0 moves whole rows; fancy indexing is several
    # times slower for narrow rows.
    members = np.take(top_ids.reshape(total, s), gather_pos, axis=0)
    fps = fold_fingerprint_array(members, salts[trial])

    # Column -> generator id for every occurrence, still in key order (runs
    # contiguous, columns ascending within each run).  ``take`` wants intp
    # indices; one explicit cast beats the fancy-index path's internal one.
    np.remainder(skey, n64, out=gkey)
    gens_all = np.take(np.asarray(gen_ids, dtype=np.uint32),
                       gkey.astype(np.int64))

    order = np.argsort(fps, kind="quicksort")
    fps_sorted = fps[order]
    counts_o, gens = _permute_runs(gens_all, run_start, counts, order)
    # Narrow before the row gather: ids fit uint32, so permuting the
    # narrowed rows moves half the bytes of permute-then-cast.
    members_o = np.take(members.astype(np.uint32), order, axis=0)
    _give(scratch, key, gkey_buf)

    if k > 1 and np.any(fps_sorted[1:] == fps_sorted[:-1]):
        # Cross-trial (or cross-tuple) fingerprint collision within the
        # chunk — astronomically rare.  Merge the colliding runs exactly as
        # the dense np.unique path would: first occurrence in trial-major
        # order wins the member row; generator lists union.
        return _merge_fp_collisions(fps_sorted, members_o, counts_o, gens,
                                    flatpos[order])
    return fps_sorted, members_o, counts_o.astype(np.uint32), gens


def _permute_runs(values: np.ndarray, run_start: np.ndarray,
                  counts: np.ndarray, order: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Reorder the runs of ``values`` to ``order`` with ONE repeat + take.

    Run ``order[r]`` (``counts[order[r]]`` entries from
    ``run_start[order[r]]``) becomes output run ``r``.  Position ``j`` inside
    output run ``r`` maps to ``run_start[order[r]] + rank`` with ``rank == j
    - (output run offset)``, so the gather index is just ``j`` plus a
    per-run shift broadcast over the run.  Returns ``(counts[order],
    gathered values)``.
    """
    counts_o = counts[order].astype(np.int64, copy=False)
    shift = run_start[order].astype(np.int64, copy=False)
    np.subtract(shift, np.cumsum(counts_o), out=shift)
    np.add(shift, counts_o, out=shift)
    positions = np.repeat(shift, counts_o)
    positions += np.arange(positions.size, dtype=np.int64)
    return counts_o, np.take(values, positions)


def union_runs(group: np.ndarray, counts: np.ndarray | None,
               gens: np.ndarray, n_groups: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Union the generator runs that share a group id.

    Run ``i`` (``counts[i]`` entries of ``gens``; one entry when ``counts``
    is None) belongs to group ``group[i]``.  Every entry is re-keyed as
    packed ``group << 32 | gen``; one sort plus an adjacent-duplicate drop
    yields each group's sorted, duplicate-free union.  Both ids must fit 32
    bits.  Returns ``(gen_counts, gens)`` as int64 / uint64.
    """
    keys = group.astype(np.uint64)
    if counts is not None:
        keys = np.repeat(keys, counts)
    np.left_shift(keys, _ID_BITS, out=keys)
    np.bitwise_or(keys, gens.view(np.uint64) if gens.dtype == np.int64
                  else gens.astype(np.uint64), out=keys)
    keys.sort()
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    kept = keys[keep]
    gen_counts = np.bincount((kept >> _ID_BITS).astype(np.int64),
                             minlength=n_groups)
    return gen_counts, kept & _ID_MASK


def _merge_fp_collisions(fps: np.ndarray, members: np.ndarray,
                         counts: np.ndarray, gens: np.ndarray,
                         flatpos: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse adjacent equal-fingerprint runs (cold path, k-sized)."""
    k = fps.size
    is_new = np.empty(k, dtype=bool)
    is_new[0] = True
    np.not_equal(fps[1:], fps[:-1], out=is_new[1:])
    group = np.cumsum(is_new) - 1
    n_groups = int(group[-1]) + 1
    # Representative row per group: the globally-first occurrence.
    rep_order = np.lexsort((flatpos, group))
    reps = rep_order[np.searchsorted(group[rep_order], np.arange(n_groups))]
    gen_counts, kept = union_runs(group, counts, gens, n_groups)
    return (fps[is_new], members[reps], gen_counts.astype(np.uint32),
            kept.astype(np.uint32))


def agg_merge(fp_parts: list[np.ndarray], member_parts: list[np.ndarray],
              count_parts: list[np.ndarray], gen_parts: list[np.ndarray]
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merge per-chunk partials into one pass result.

    Each part is one trial chunk's ``(fps, members, gen_counts, gens)``:
    fingerprints strictly ascending, each generator list sorted and
    duplicate-free (the :func:`chunk_reduce` wire format, or a
    :class:`~repro.core.passresult.PassResult` in CSR form).  Parts come in
    ascending trial order.  Output dtypes follow the inputs.

    One stable argsort over the concatenated fingerprints puts every entry
    in global order; stability keeps trial order among equal fingerprints,
    so the first of each run is the globally-first occurrence.  Fingerprints
    are salted per trial, so two parts (disjoint trial ranges) share a
    fingerprint only on a 64-bit hash collision.  Without one, every output
    shingle is exactly one input entry: its member row, count and generator
    run are gathered as they are, with no generator sort.  With one, the
    colliding entries fall back to an exact group-by: first occurrence wins
    the member row, generator lists are unioned.  Both branches give the
    output of one ``np.unique`` over the whole trial-major occurrence array.
    """
    fp_cat = np.concatenate(fp_parts)
    members_cat = np.concatenate(member_parts)
    counts_cat = np.concatenate(count_parts)
    gens_cat = np.concatenate(gen_parts)
    order = np.argsort(fp_cat, kind="stable")
    fp_sorted = fp_cat[order]
    is_start = np.empty(fp_sorted.size, dtype=bool)
    is_start[:1] = True
    np.not_equal(fp_sorted[1:], fp_sorted[:-1], out=is_start[1:])
    if is_start.all():
        run_start = np.cumsum(counts_cat, dtype=np.int64)
        run_start -= counts_cat
        counts_o, gens = _permute_runs(gens_cat, run_start, counts_cat, order)
        # ``take`` along axis 0 moves whole rows; ``members_cat[order]`` is
        # ~10x slower for narrow rows.
        return (fp_sorted, np.take(members_cat, order, axis=0),
                counts_o.astype(counts_cat.dtype), gens)
    run_starts = np.flatnonzero(is_start)
    group = np.empty(fp_cat.size, dtype=np.int64)
    group[order] = np.cumsum(is_start) - 1
    gen_counts, gens = union_runs(group, counts_cat, gens_cat,
                                  run_starts.size)
    return (fp_sorted[run_starts], members_cat[order[run_starts]],
            gen_counts.astype(counts_cat.dtype), gens.astype(gens_cat.dtype))


def count_kernel_elements(kernel: str, n_trials: int, nnz: int, n_seg: int, s: int) -> int:
    """Element counts fed to the kernel cost model, per kernel class."""
    if kernel == "transform":
        return n_trials * nnz
    if kernel == "sort":
        return n_trials * nnz
    if kernel == "select":
        return n_trials * nnz * s
    if kernel == "reduce":
        return n_trials * n_seg * s
    if kernel == "chunk_reduce":
        return n_trials * n_seg
    raise ValueError(f"unknown kernel class {kernel!r}")
