"""The serial Shingling reference (pClust's algorithm, Section III-B).

This is the faithful pure-Python rendition of the paper's serial
implementation: per-vertex, per-trial enumeration of the adjacency list with
an s-sized insertion-sorted minimum buffer ("the small values of s expected
to be used in practice justify a simple insertion sort-based approach"),
followed by fingerprint-keyed aggregation into the shingle graph.

It is deliberately *not* vectorized: it plays the role of the paper's serial
baseline in Table I, and it is the ground truth the device path is validated
against — both must produce identical :class:`PassResult` objects for the
same hash pairs.
"""

from __future__ import annotations

from bisect import insort

import numpy as np

from repro.core.params import PassConfig
from repro.core.passresult import PassResult
from repro.graph.bipartite import BipartiteCSR
from repro.obs import get_obs
from repro.util.mixhash import fold_fingerprint


def serial_top_s(neighbors, a: int, b: int, prime: int, s: int) -> list[tuple[int, int]]:
    """Top-``s`` (hash, id) pairs of one adjacency list under one trial.

    Returns pairs sorted by hash ascending; fewer than ``s`` pairs when the
    list is shorter than ``s``.  Ties cannot occur: the affine map is a
    bijection mod P and neighbor lists are duplicate-free.
    """
    top: list[tuple[int, int]] = []
    worst = -1
    for v in neighbors:
        hv = (a * v + b) % prime
        if len(top) < s:
            insort(top, (hv, v))
            worst = top[-1][0]
        elif hv < worst:
            insort(top, (hv, v))
            top.pop()
            worst = top[-1][0]
    return top


def serial_shingle_pass(indptr: np.ndarray, elements: np.ndarray,
                        config: PassConfig) -> PassResult:
    """Run one full shingling pass serially; returns the shingle graph.

    Parameters
    ----------
    indptr, elements:
        The input adjacency structure in CSR form (left-node lists).
    config:
        Pass configuration (s, c, hash pairs, salts).

    Notes
    -----
    Aggregation ("gather all vertices that generated each shingle") is done
    with a fingerprint-keyed dict, the serial equivalent of the sort-based
    gather the paper describes.
    """
    s, prime = config.s, config.prime
    coeffs = [(p.a, p.b) for p in config.hash_pairs]
    salts = [int(x) for x in config.salts.tolist()]

    tracer = get_obs().tracer
    t0 = tracer.clock() if tracer.enabled else 0.0

    indptr_l = np.asarray(indptr, dtype=np.int64).tolist()
    elements_l = np.asarray(elements, dtype=np.int64).tolist()
    n_seg = len(indptr_l) - 1

    # fingerprint -> (members tuple, [generator ids])
    table: dict[int, tuple[tuple[int, ...], list[int]]] = {}

    for seg in range(n_seg):
        lo, hi = indptr_l[seg], indptr_l[seg + 1]
        if hi - lo < s:
            continue  # only vertices with at least s links generate shingles
        neighbors = elements_l[lo:hi]
        for (a, b), salt in zip(coeffs, salts):
            top = serial_top_s(neighbors, a, b, prime, s)
            members = tuple(v for _, v in top)
            fp = fold_fingerprint(members, salt)
            entry = table.get(fp)
            if entry is None:
                table[fp] = (members, [seg])
            else:
                entry[1].append(seg)

    result = _table_to_passresult(table, s, n_seg)
    if tracer.enabled:
        tracer.record("serial.shingle_pass", t0, tracer.clock(),
                      attrs={"n_segments": n_seg, "c": len(coeffs), "s": s,
                             "n_shingles": int(result.n_shingles)})
    return result


def _table_to_passresult(table: dict[int, tuple[tuple[int, ...], list[int]]],
                         s: int, n_seg: int) -> PassResult:
    """Convert the aggregation dict into a canonical PassResult."""
    fps = sorted(table)
    k = len(fps)
    fingerprints = np.array(fps, dtype=np.uint64)
    members = np.zeros((k, s), dtype=np.int64)
    gen_lists: list[np.ndarray] = []
    for i, fp in enumerate(fps):
        mem, gens = table[fp]
        members[i] = mem
        gen_lists.append(np.array(sorted(set(gens)), dtype=np.int64))
    gen_graph = BipartiteCSR.from_lists(gen_lists, n_right=n_seg)
    return PassResult(fingerprints=fingerprints, members=members,
                      gen_graph=gen_graph, n_input_segments=n_seg)
