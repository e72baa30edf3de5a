"""The serial Shingling reference (pClust's algorithm, Section III-B).

This is the faithful pure-Python rendition of the paper's serial
implementation: per-vertex, per-trial enumeration of the adjacency list with
an s-sized insertion-sorted minimum buffer ("the small values of s expected
to be used in practice justify a simple insertion sort-based approach"),
followed by fingerprint-keyed aggregation into the shingle graph, and a
scalar union-find Phase III (:func:`serial_partition_labels`).

It is deliberately *not* vectorized: it plays the role of the paper's serial
baseline in Table I, and it is the ground truth the device path is validated
against — both must produce identical :class:`PassResult` objects for the
same hash pairs, and identical partition labels.
"""

from __future__ import annotations

from bisect import insort

import numpy as np

from repro.core.params import PassConfig
from repro.core.passresult import PassResult
from repro.graph.bipartite import BipartiteCSR
from repro.graph.unionfind import UnionFind
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



def serial_partition_labels(pass1: PassResult, pass2: PassResult,
                            n_vertices: int) -> np.ndarray:
    """Phase III partition mode with a scalar union-find: the oracle of the
    vectorized :func:`repro.core.report.partition_labels`.

    One group per second-level shingle ``t``: its own constituent vertices
    plus the constituents of every first-level shingle in ``L'(t)``.
    Transitive merging across groups sharing a first-level shingle
    reproduces exactly the connected components of ``G_II``.
    """
    members1 = pass1.members.tolist()
    indptr = pass2.gen_graph.indptr.tolist()
    indices = pass2.gen_graph.indices.tolist()
    uf = UnionFind(n_vertices)
    for t, group in enumerate(pass2.members.tolist()):
        for f in indices[indptr[t]:indptr[t + 1]]:
            group += members1[f]
        uf.union_group(group)
    return uf.labels()


def serial_one_shingle_labels(pass1: PassResult,
                              n_vertices: int) -> np.ndarray:
    """The one-shingle grouping with a scalar union-find: the oracle of
    :func:`repro.core.report.one_shingle_labels` (every generator set
    ``L(f)`` joins one cluster)."""
    gens = pass1.gen_graph
    indptr = gens.indptr.tolist()
    indices = gens.indices.tolist()
    uf = UnionFind(n_vertices)
    for lo, hi in zip(indptr[:-1], indptr[1:]):
        uf.union_group(indices[lo:hi])
    return uf.labels()
