"""Vectorized CPU-side aggregation: shingle occurrences -> shingle graph.

"CPU is extremely efficient to handle the sophisticated programming logics,
therefore the task of the CPU is to aggregate the data for the GPU." (Section
III-C.)  After the device streams back per-(trial, segment) shingle
fingerprints, the CPU must gather, for every distinct shingle ``s_j``, the
set ``L(s_j)`` of generators — the paper implements this as a sort; we use
``np.unique``'s sort-based grouping, the whole-array equivalent.

Also home to the split-list merge: when an adjacency list was split across
batches, the true top-``s`` minima are recovered by merging the per-chunk
top-``s`` candidate pairs (a correct merge because the global top-``s`` is
always contained in the union of per-chunk top-``s`` sets).
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.core.passresult import PassResult
from repro.device.kernels import SENTINEL, agg_merge, union_runs, unpack_pairs
from repro.graph.bipartite import BipartiteCSR
from repro.obs import get_obs
from repro.util.mixhash import fold_fingerprint_array

_U32_MAX = np.uint64(0xFFFFFFFF)

# Expensive sanity scans (for example the O(k*s) sentinel-member check after
# every aggregation) only run when debug checks are on.  Default comes from
# the environment so a production run never pays for them; the test suite
# force-enables them via set_debug_checks().
_DEBUG_CHECKS = os.environ.get("REPRO_DEBUG_CHECKS", "").lower() not in (
    "", "0", "false", "off")


def set_debug_checks(enabled: bool) -> bool:
    """Toggle debug-mode sanity checks; returns the previous setting."""
    global _DEBUG_CHECKS
    previous = _DEBUG_CHECKS
    _DEBUG_CHECKS = bool(enabled)
    return previous


def debug_checks_enabled() -> bool:
    """Whether debug-mode sanity checks are currently on."""
    return _DEBUG_CHECKS


def merge_candidate_pairs(block: np.ndarray, s: int) -> np.ndarray:
    """Sort-and-truncate merge of top-``s`` candidate pairs, in place.

    The global top-``s`` of a list is always contained in the union of its
    chunks' top-``s`` sets, so sorting the SENTINEL-padded candidate block
    along its last axis and keeping the first ``s`` recovers it exactly.
    Shared by every split-list merge call site; ``block`` is sorted in place
    and the returned array is a view of its leading ``s`` lanes.
    """
    block.sort(axis=-1)
    return block[..., :s]


def merge_split_pairs(chunk_pairs: list[np.ndarray], s: int) -> np.ndarray:
    """Merge per-chunk top-``s`` packed pairs into the true top-``s``.

    Parameters
    ----------
    chunk_pairs:
        Per-chunk arrays, each ``(c, n_split, s)`` packed pairs padded with
        ``SENTINEL``; all chunks aligned on the same split-segment axis.
    s:
        Shingle size.

    Returns
    -------
    np.ndarray
        ``(c, n_split, s)`` merged top-``s`` packed pairs (SENTINEL-padded
        where the combined list is still shorter than ``s``).
    """
    if not chunk_pairs:
        raise ValueError("need at least one chunk")
    stacked = np.concatenate(chunk_pairs, axis=2)
    return merge_candidate_pairs(stacked, s)


def merge_splits_into(
    fps_all: np.ndarray,
    top_all: np.ndarray,
    split_chunks: dict[int, list[np.ndarray]],
    s: int,
    salts: np.ndarray,
) -> None:
    """Merge per-chunk top-s candidates of split lists; fix fps in place.

    This is the paper's CPU aggregation step that "will remember this case
    and merge the different copies of shingles into one correct copy for the
    split adjacency list".  The candidate block is built with a single
    vectorized scatter: all pieces stack into one ``(c, total_pieces, s)``
    array and land at their ``(column, piece)`` coordinates in one indexing
    operation, then :func:`merge_candidate_pairs` recovers the true top-s.

    Parameters
    ----------
    fps_all, top_all:
        ``(c, n_rows)`` / ``(c, n_rows, s)`` pass-level accumulators,
        updated in place at the split columns.
    split_chunks:
        Compact row id -> list of ``(c, s)`` packed top-s arrays, one per
        batch chunk the list was split across.
    s, salts:
        Shingle size and per-trial fingerprint salts.
    """
    split_ids = np.array(sorted(split_chunks), dtype=np.int64)
    c = fps_all.shape[0]
    pieces_per = np.array([len(split_chunks[src]) for src in split_ids.tolist()],
                          dtype=np.int64)
    max_pieces = int(pieces_per.max())
    stacked = np.stack([pairs
                        for src in split_ids.tolist()
                        for pairs in split_chunks[src]], axis=1)
    col_idx = np.repeat(np.arange(split_ids.size, dtype=np.int64), pieces_per)
    piece_starts = np.cumsum(pieces_per) - pieces_per
    piece_idx = np.arange(col_idx.size, dtype=np.int64) - np.repeat(piece_starts, pieces_per)
    block = np.full((c, split_ids.size, max_pieces, s), SENTINEL, dtype=np.uint64)
    block[:, col_idx, piece_idx, :] = stacked
    block = block.reshape(c, split_ids.size, max_pieces * s)
    merged = merge_candidate_pairs(block, s)
    top_all[:, split_ids, :] = merged
    fps_all[:, split_ids] = fingerprints_from_pairs(merged, salts)


def fingerprints_from_pairs(pairs: np.ndarray, salts: np.ndarray) -> np.ndarray:
    """Fingerprint packed top-``s`` pairs: ``(c, n, s)`` -> ``(c, n)``.

    Used to (re)compute fingerprints of merged split segments on the CPU,
    matching bit-for-bit what the device computes for unsplit segments.
    """
    _, ids = unpack_pairs(pairs)
    return fold_fingerprint_array(ids, np.asarray(salts, dtype=np.uint64).reshape(-1, 1))


def aggregate_pass(fps_all: np.ndarray, top_all: np.ndarray, lengths: np.ndarray,
                   s: int, segment_ids: np.ndarray | None = None,
                   n_segments: int | None = None) -> PassResult:
    """Build the distinct-shingle graph from per-occurrence arrays.

    Parameters
    ----------
    fps_all:
        ``(c, n_rows)`` fingerprints; column ``i`` are the ``c`` shingle
        fingerprints of row ``i``'s segment (garbage where it is too short).
    top_all:
        ``(c, n_rows, s)`` packed top-``s`` pairs for member extraction.
    lengths:
        ``(n_rows,)`` source segment lengths; only segments with
        ``length >= s`` generate shingles (Section III-B).
    s:
        Shingle size.
    segment_ids:
        Original segment id of each row; identity when None.  Set when the
        caller pre-compacted the input to valid segments only.
    n_segments:
        Total segment count in the original input (defaults to ``n_rows``).

    Returns
    -------
    PassResult
        Canonical (fingerprint-sorted) shingle graph; identical to what the
        serial reference produces for the same inputs.
    """
    fps_all = np.asarray(fps_all, dtype=np.uint64)
    top_all = np.asarray(top_all, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    c, n_rows = fps_all.shape
    if top_all.shape != (c, n_rows, s):
        raise ValueError(f"top_all shape {top_all.shape} != {(c, n_rows, s)}")
    if lengths.shape != (n_rows,):
        raise ValueError("lengths shape mismatch")
    if segment_ids is None:
        segment_ids = np.arange(n_rows, dtype=np.int64)
    else:
        segment_ids = np.asarray(segment_ids, dtype=np.int64)
        if segment_ids.shape != (n_rows,):
            raise ValueError("segment_ids shape mismatch")
    n_seg = n_rows if n_segments is None else int(n_segments)

    valid_rows = np.flatnonzero(lengths >= s)
    if valid_rows.size == 0:
        return PassResult(
            fingerprints=np.empty(0, dtype=np.uint64),
            members=np.empty((0, s), dtype=np.int64),
            gen_graph=BipartiteCSR.from_lists([], n_right=n_seg),
            n_input_segments=n_seg,
        )

    if valid_rows.size == n_rows:
        # Fast path for pre-compacted input (the device driver drops short
        # segments before upload): the flattened views are free, no gather.
        fp_flat = fps_all.reshape(-1)
        top_rows = top_all.reshape(c * n_rows, s)
        gen_src = segment_ids
    else:
        fp_flat = fps_all[:, valid_rows].ravel()
        top_rows = top_all[:, valid_rows, :].reshape(-1, s)
        gen_src = segment_ids[valid_rows]

    uniq, first_idx, inverse = np.unique(fp_flat, return_index=True, return_inverse=True)
    # Only the first occurrence of each distinct fingerprint contributes
    # members: gather those rows first, then unpack — O(k*s) instead of a
    # full O(c*n*s) unpack + int64 conversion.
    members = (top_rows[first_idx] & _U32_MAX).astype(np.int64)

    # Packed ``group << 32 | gen`` keys: both ranges must fit 32 bits.
    if uniq.size - 1 > int(_U32_MAX) or n_seg - 1 > int(_U32_MAX):
        raise ValueError("group/generator ids exceed 32-bit packing range")
    gen_counts, gens = union_runs(inverse, None, np.tile(gen_src, c),
                                  uniq.size)
    result = pass_result_from_wire(uniq, members, gen_counts, gens,
                                   n_segments=n_seg)
    if _DEBUG_CHECKS:
        _check_no_sentinel_members(result, s)
    return result


class StreamingAggregator:
    """Incremental aggregation of per-trial-chunk partial results.

    The multi-stream engine aggregates each trial chunk's ``(t, n, s)``
    shingle block into a partial result as soon as the chunk's kernels
    finish, then discards the block — so the full ``(c, n, s)`` occurrence
    arrays are never materialized and peak host memory drops from
    O(c*n*s) to O(chunk*n*s).  Partials are kept in the wire form of
    :func:`~repro.device.kernels.chunk_reduce` (the device's uint32 member
    and generator lanes) and merged in it; the one cast to the int64
    :class:`PassResult` lanes comes after the merge.

    Merging is deterministic and bit-identical to whole-array
    :func:`aggregate_pass`: partials are ordered by their trial offset
    (reconstructing the trial-major flattened order), so the first partial
    containing a fingerprint holds its globally-first occurrence — exactly
    the row ``np.unique(..., return_index=True)`` would have picked — and
    generator lists merge as sorted unions.  ``add`` is thread-safe.
    """

    def __init__(self, s: int, n_segments: int) -> None:
        self.s = int(s)
        self.n_segments = int(n_segments)
        self._parts: list[tuple[int, tuple]] = []
        self._run_keys: list[np.ndarray] = []
        self._lock = threading.Lock()

    def add(self, trial_lo: int, partial, run_keys: np.ndarray | None = None
            ) -> None:
        """Record the partial result for the trial chunk starting at
        ``trial_lo``: a :class:`PassResult` or its ``(fps, members,
        gen_counts, gens)`` wire tuple.  ``run_keys``, when given, holds
        one key per run the chunk found, kept or not, two runs sharing a
        key iff they share a fingerprint (``chunk_reduce``'s), for
        :meth:`distinct_runs`."""
        if isinstance(partial, PassResult):
            partial = (partial.fingerprints, partial.members,
                       partial.gen_graph.degrees(), partial.gen_graph.indices)
        with self._lock:
            self._parts.append((int(trial_lo), partial))
            if run_keys is not None:
                self._run_keys.append(run_keys)

    @property
    def n_partials(self) -> int:
        with self._lock:
            return len(self._parts)

    def distinct_runs(self) -> int | None:
        """How many runs the ``run_keys`` of every :meth:`add` name, or
        ``None`` when two of them share a fingerprint.

        One sort of every run's key.  Fingerprints are salted per
        trial, so a shared one is a 64-bit hash collision; without one,
        every run is its own shingle and a run a chunk dropped for having
        too few generators would have had no more in the whole pass.
        """
        with self._lock:
            if not self._run_keys:
                return 0
            keys = np.concatenate(self._run_keys)
        keys.sort()
        if keys.size > 1 and np.any(keys[1:] == keys[:-1]):
            return None
        return int(keys.size)

    def result(self, n_distinct: int | None = None) -> PassResult:
        """Merge all partials into the whole-pass result; ``n_distinct``
        is its :attr:`PassResult.n_distinct`."""
        with self._lock:
            parts = [p for _, p in sorted(self._parts, key=lambda kv: kv[0])]
        if not parts:
            raise ValueError("no partial results to merge")
        if len(parts) == 1:
            wire = parts[0]
        else:
            with get_obs().tracer.span("aggregate.merge_partials",
                                       n_partials=len(parts)):
                wire = agg_merge(*(list(lane) for lane in zip(*parts)))
        return pass_result_from_wire(*wire, n_segments=self.n_segments,
                                     n_distinct=n_distinct)


def pass_result_from_wire(fps: np.ndarray, members: np.ndarray,
                          gen_counts: np.ndarray, gens: np.ndarray, *,
                          n_segments: int,
                          n_distinct: int | None = None) -> PassResult:
    """A :class:`PassResult` from ``(fps, members, gen_counts, gens)``."""
    gen_indptr = np.zeros(fps.size + 1, dtype=np.int64)
    np.cumsum(gen_counts, out=gen_indptr[1:])
    return PassResult(fingerprints=fps,
                      members=members.astype(np.int64, copy=False),
                      gen_graph=BipartiteCSR(gen_indptr, gens,
                                             n_right=n_segments,
                                             validate=False),
                      n_input_segments=n_segments, n_distinct=n_distinct)


def _check_no_sentinel_members(result: PassResult, s: int) -> None:
    """Sanity check: valid segments must never yield SENTINEL-padded members."""
    if result.members.size:
        if np.any(result.members.astype(np.uint64) == (SENTINEL & np.uint64(0xFFFFFFFF))):
            raise AssertionError(
                "sentinel id leaked into shingle members — a segment shorter "
                "than s was treated as valid"
            )
