"""k-mer seed filtering: the candidate-pair heuristic.

pGraph avoids all-against-all alignment by "first identifying promising
pairs of sequences based on a maximal-matching heuristic (suffix trees are
used in our implementation)".  We stand in a k-mer seed index for the suffix
tree: two sequences become an alignment candidate when they share at least
``min_shared`` exact k-mers.  Same filtering effect (exact substring
agreement), much simpler machinery, fully vectorized.  A suffix-array
maximal-match filter found fewer pairs but cost more wall time on every
sequence workload (EXPERIMENTS.md), so this is the only pair filter.

The index is built loop-free: all sequences are concatenated once, every
window is packed in a single matrix product, windows crossing a sequence
boundary are masked out by owner comparison, and per-sequence duplicate
k-mer types plus the final shared-count threshold each collapse into one
sort.  Groups of sequences sharing a seed become pairs through the
triangle expansion :func:`expand_group_pairs`, and
:func:`dedupe_count_pairs` counts and thresholds them with one more sort.

High-frequency k-mers (low-complexity regions) are dropped, as every seeded
filter must, to avoid quadratic blowup on repeats.
"""

from __future__ import annotations

import numpy as np

from repro.sequence.alphabet import ALPHABET_SIZE


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=out[1:])
    return out


def expand_group_pairs(members: np.ndarray, starts: np.ndarray,
                       sizes: np.ndarray) -> np.ndarray:
    """All ordered within-group pairs, fully vectorized.

    Parameters
    ----------
    members:
        Flat array holding every group's members back to back.  Members
        must be sorted ascending *within* each group (so emitted pairs obey
        ``a < b`` when members are distinct).
    starts / sizes:
        Per-group offset into ``members`` and group length.  Groups need
        not tile ``members``; filtered subsets are fine.

    Returns
    -------
    np.ndarray
        ``(sum_g size_g*(size_g-1)/2, 2)`` array: for each group, every
        member pair ``(members[x], members[y])`` with ``x < y`` (local),
        groups in order, pairs in row-major triangle order.
    """
    members = np.asarray(members, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size == 0 or members.size == 0:
        return np.empty((0, 2), dtype=np.int64)

    # Element level: local position p of each member within its group.
    n_elems = int(sizes.sum())
    elem_group_start = np.repeat(_exclusive_cumsum(sizes), sizes)
    local = np.arange(n_elems, dtype=np.int64) - elem_group_start
    elem_pos = np.repeat(starts, sizes) + local          # index into members
    # Member at local position p partners every later member: g - 1 - p
    # pairs with itself as the left element.
    reps = np.repeat(sizes, sizes) - 1 - local

    # Pair level: for each left element, right elements are the following
    # run of reps[e] members; cumsum arithmetic yields the run-local index.
    total = int(reps.sum())
    if total == 0:
        return np.empty((0, 2), dtype=np.int64)
    left = np.repeat(elem_pos, reps)
    run_start = np.repeat(_exclusive_cumsum(reps), reps)
    offset = np.arange(total, dtype=np.int64) - run_start
    right = left + 1 + offset
    return np.stack([members[left], members[right]], axis=1)


def dedupe_count_pairs(pairs: np.ndarray, n: int,
                       min_count: int = 1) -> np.ndarray:
    """Unique sorted pairs occurring at least ``min_count`` times.

    Packs each ``(a, b)`` row into the dense key ``a * n + b`` and finds
    run lengths with a single sort — equivalent to ``np.unique(...,
    return_counts=True)`` but without the second pass the unique/inverse
    machinery performs.

    Returns ``(m, 2)`` rows sorted lexicographically (the key order).
    """
    if pairs.shape[0] == 0:
        return np.empty((0, 2), dtype=np.int64)
    keys = pairs[:, 0] * np.int64(n) + pairs[:, 1]
    keys.sort()  # equal keys are equal values: stability changes nothing
    boundary = np.empty(keys.size, dtype=bool)
    boundary[0] = True
    np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
    run_starts = np.flatnonzero(boundary)
    if min_count > 1:
        run_lengths = np.diff(np.append(run_starts, keys.size))
        run_starts = run_starts[run_lengths >= min_count]
    qualified = keys[run_starts]
    return np.stack([qualified // n, qualified % n], axis=1)


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if ALPHABET_SIZE ** k > 2**62:
        raise ValueError(f"k={k} too large to pack into int64")


def kmer_codes(seq: np.ndarray, k: int) -> np.ndarray:
    """All overlapping k-mers of a code sequence, packed into int64 values.

    Packing is positional base-``ALPHABET_SIZE``; k is limited so the packed
    value fits in int64 (k <= 14 for a 21-letter alphabet).
    """
    _check_k(k)
    seq = np.asarray(seq, dtype=np.int64)
    if seq.size < k:
        return np.empty(0, dtype=np.int64)
    # Sliding windows via stride trick on a cumulative polynomial encoding.
    weights = ALPHABET_SIZE ** np.arange(k, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(seq, k)
    return windows @ weights


def _concatenated_kmer_index(sequences: list[np.ndarray],
                             k: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``(kmer, owner)`` pairs over all sequences, one pass.

    Concatenates the set, packs every window with one matrix product, drops
    windows that straddle a sequence boundary (their first and last residue
    belong to different owners), and deduplicates per-sequence k-mer types
    with one sort of the packed key ``code * n_seq + owner`` (a code-major
    ``lexsort`` when that key could pass 63 bits).

    Returns ``(codes, owners)`` sorted by code then owner, duplicate-free.
    """
    lengths = np.array([s.size for s in sequences], dtype=np.int64)
    total = int(lengths.sum())
    if total < k:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    concat = np.concatenate(
        [np.asarray(s, dtype=np.int64) for s in sequences if s.size])
    owner_of_residue = np.repeat(
        np.arange(lengths.size, dtype=np.int64), lengths)

    weights = ALPHABET_SIZE ** np.arange(k, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(concat, k)
    codes = windows @ weights
    within = owner_of_residue[:codes.size] == owner_of_residue[k - 1:]
    codes = codes[within]
    owners = owner_of_residue[:within.size][within]

    n_seq = lengths.size
    if ALPHABET_SIZE ** k * n_seq < 1 << 63:
        key = codes * n_seq
        key += owners
        key.sort()
        distinct = np.empty(key.size, dtype=bool)
        distinct[:1] = True
        np.not_equal(key[1:], key[:-1], out=distinct[1:])
        key = key[distinct]
        return key // n_seq, key % n_seq
    order = np.lexsort((owners, codes))
    codes = codes[order]
    owners = owners[order]
    distinct = np.empty(codes.size, dtype=bool)
    distinct[:1] = True
    distinct[1:] = (codes[1:] != codes[:-1]) | (owners[1:] != owners[:-1])
    return codes[distinct], owners[distinct]


def candidate_pairs(sequences: list[np.ndarray], k: int = 5,
                    min_shared: int = 1,
                    max_kmer_occurrence: int = 200) -> np.ndarray:
    """Pairs of sequence indices sharing at least ``min_shared`` k-mers.

    Parameters
    ----------
    sequences:
        Integer-encoded sequences.
    k:
        Seed length; 4-6 is the useful protein range (5 gives ~4M possible
        seeds, so unrelated sequences of a few hundred residues rarely
        collide more than ``min_shared`` times).
    min_shared:
        Minimum number of distinct shared k-mer *types* to qualify.
    max_kmer_occurrence:
        Seeds present in more than this many sequences are skipped
        (low-complexity filter).

    Returns
    -------
    np.ndarray
        ``(m, 2)`` array of index pairs with ``i < j``, sorted.
    """
    _check_k(k)
    if min_shared < 1:
        raise ValueError("min_shared must be >= 1")
    if max_kmer_occurrence < 2:
        raise ValueError("max_kmer_occurrence must be >= 2")
    if not sequences:
        return np.empty((0, 2), dtype=np.int64)

    codes, owners = _concatenated_kmer_index(sequences, k)
    if codes.size == 0:
        return np.empty((0, 2), dtype=np.int64)

    # Seed groups: runs of equal code, owners already sorted within a run.
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    sizes = np.diff(np.append(starts, codes.size))
    keep = (sizes >= 2) & (sizes <= max_kmer_occurrence)
    raw = expand_group_pairs(owners, starts[keep], sizes[keep])
    return dedupe_count_pairs(raw, len(sequences), min_count=min_shared)
