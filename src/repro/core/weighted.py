"""Weighted Shingling: the paper's out-of-scope extension, implemented.

The paper notes that edge weights (degrees of pairwise relationship, e.g.
alignment scores) are "sometimes available" but scopes itself to unweighted
inputs.  This module extends the first shingling pass to weighted graphs via
**exponential-race min-hashing** (probability-proportional sampling, the
P-minhash construction): for trial ``j``, the key of arc ``(u, v)`` is

    key_j(u, v) = -ln(U_j(v)) / w(u, v)

where ``U_j(v)`` in (0, 1) derives deterministically from ``(j, v)``.  The
arc with the minimum key wins with probability proportional to its weight,
so heavily-weighted neighbors dominate a vertex's shingles, and two vertices
share shingles in proportion to a weight-sensitive similarity of their
neighborhoods.  With equal weights the winner distribution reduces to the
uniform min-wise sampling of the unweighted algorithm.

The second pass and Phase III are unchanged (generator lists carry no
weights).  Keys are ordered through a coarse 32-bit monotone quantization of
the IEEE-754 bit pattern with the element id as a deterministic tiebreaker,
which makes the serial and vectorized paths bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.core.aggregate import aggregate_pass
from repro.core.params import PassConfig, ShinglingParams
from repro.core.report import report_clusters
from repro.core.result import ClusterResult
from repro.core.passresult import PassResult
from repro.device.kernels import SENTINEL, segmented_select_top_s
from repro.graph.weighted import WeightedCSRGraph
from repro.util.mixhash import fold_fingerprint_array, mix64, mix64_array
from repro.util.timer import BUCKET_CPU, TimeBreakdown

_INV_2_53 = np.float64(2.0 ** -53)


def _uniforms(ids: np.ndarray, salt: np.uint64) -> np.ndarray:
    """Deterministic uniforms in (0, 1): 53 mixed bits of ``(salt, id)``."""
    mixed = mix64_array(ids.astype(np.uint64) ^ np.uint64(salt))
    # Top 53 bits -> (0, 1]; add half-ulp to exclude exact zero.
    return (mixed >> np.uint64(11)).astype(np.float64) * _INV_2_53 + _INV_2_53


def weighted_keys(ids: np.ndarray, weights: np.ndarray,
                  salt: int) -> np.ndarray:
    """Exponential-race keys of a flat arc buffer for one trial."""
    u = _uniforms(np.asarray(ids), np.uint64(salt))
    return -np.log(u) / np.asarray(weights, dtype=np.float64)


def _pack_weighted(keys: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Pack float keys + ids into order-preserving uint64 pairs.

    Positive IEEE doubles order like their bit patterns; the top 32 bits
    give a monotone coarse key, the low 32 bits hold the element id as the
    tiebreaker.  Quantization collisions (~2^-20 relative) only ever fall
    back to id order — deterministic on every path.
    """
    bits = keys.astype(np.float64).view(np.uint64) >> np.uint64(32)
    ids = np.asarray(ids, dtype=np.uint64)
    if ids.size and int(ids.max()) >> 32:
        raise ValueError("element ids must fit in 32 bits")
    return (bits << np.uint64(32)) | ids


def weighted_shingle_pass(wgraph: WeightedCSRGraph, config: PassConfig,
                          backend: str = "vectorized") -> PassResult:
    """One weighted shingling pass over all vertex neighborhoods.

    Both backends produce identical results; ``"serial"`` is the loop-based
    reference, ``"vectorized"`` the production whole-array path.
    """
    indptr = wgraph.indptr
    elements = wgraph.indices
    weights = wgraph.weights
    lengths = np.diff(indptr)
    s, c = config.s, config.c
    salts = config.salts

    if backend == "vectorized":
        n_seg = lengths.size
        fps_all = np.zeros((c, n_seg), dtype=np.uint64)
        top_all = np.full((c, n_seg, s), SENTINEL, dtype=np.uint64)
        for j in range(c):
            keys = weighted_keys(elements, weights, int(salts[j]))
            packed = _pack_weighted(keys, elements)
            top = segmented_select_top_s(packed[None, :], indptr, s)[0]
            top_all[j] = top
            ids = (top & np.uint64(0xFFFFFFFF))
            fps_all[j] = fold_fingerprint_array(
                ids, np.uint64(salts[j]))
        return aggregate_pass(fps_all, top_all, lengths, s)

    if backend == "serial":
        from repro.core.serial import _table_to_passresult
        from repro.util.mixhash import fold_fingerprint

        table: dict[int, tuple[tuple[int, ...], list[int]]] = {}
        for seg in range(lengths.size):
            lo, hi = int(indptr[seg]), int(indptr[seg + 1])
            if hi - lo < s:
                continue
            seg_ids = elements[lo:hi]
            seg_w = weights[lo:hi]
            for j in range(c):
                keys = weighted_keys(seg_ids, seg_w, int(salts[j]))
                packed = _pack_weighted(keys, seg_ids)
                order = np.argsort(packed)[:s]
                members = tuple(int(v) for v in seg_ids[order])
                fp = fold_fingerprint(members, int(salts[j]))
                entry = table.get(fp)
                if entry is None:
                    table[fp] = (members, [seg])
                else:
                    entry[1].append(seg)
        return _table_to_passresult(table, s, lengths.size)

    raise ValueError(f"unknown backend {backend!r}")


class WeightedGpClust:
    """Weighted variant of the clustering pipeline.

    Pass 1 samples neighbors proportionally to edge weight; pass 2 and
    Phase III run the standard unweighted machinery on the shingle graph.
    """

    def __init__(self, params: ShinglingParams | None = None) -> None:
        self.params = params or ShinglingParams()

    def run(self, wgraph: WeightedCSRGraph) -> ClusterResult:
        from repro.core.device_exec import device_shingle_pass
        from repro.device.device import SimulatedDevice

        params = self.params
        breakdown = TimeBreakdown()
        with breakdown.timing(BUCKET_CPU):
            pass1 = weighted_shingle_pass(wgraph, params.pass_config(1))
            indptr2, elements2 = pass1.next_pass_input()
            pass2 = device_shingle_pass(
                indptr2, elements2, params.pass_config(2),
                SimulatedDevice(),
                kernel=params.kernel, trial_chunk=params.trial_chunk)
            output = report_clusters(
                pass1, pass2, wgraph.n_vertices,
                mode=params.report_mode,
                backend=params.union_backend,
                include_generators=params.include_generators)
        if params.report_mode == "partition":
            return ClusterResult(
                n_vertices=wgraph.n_vertices, params=params,
                backend="weighted", labels=np.asarray(output, dtype=np.int64),
                timings=breakdown,
                n_first_level_shingles=pass1.n_shingles)
        return ClusterResult(
            n_vertices=wgraph.n_vertices, params=params, backend="weighted",
            overlapping=list(output), timings=breakdown,
            n_first_level_shingles=pass1.n_shingles)


def winner_probabilities(weights: np.ndarray, salt_count: int = 20_000,
                         seed: int = 0) -> np.ndarray:
    """Monte-Carlo winner frequencies of one weighted neighborhood.

    Diagnostic used by tests to verify the exponential-race property
    ``P(v wins) = w_v / sum(w)``: runs many independent trials over a single
    list and counts which element takes the minimum key.
    """
    weights = np.asarray(weights, dtype=np.float64)
    ids = np.arange(weights.size)
    counts = np.zeros(weights.size, dtype=np.int64)
    base = mix64(seed)
    for j in range(salt_count):
        keys = weighted_keys(ids, weights, mix64(base ^ j))
        counts[int(keys.argmin())] += 1
    return counts / salt_count
