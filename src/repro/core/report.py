"""Phase III — reporting dense subgraphs from the second-level shingle graph.

Section III-B gives two formulations:

1. **Overlapping**: enumerate connected components of ``G_II``; for each,
   report the vertices of ``G`` constituting its first-level shingles.  The
   same vertex may appear in several clusters.
2. **Partition** (the paper's choice): union-find over all ``n`` vertices;
   per component, union the vertices constituting the first- and second-level
   shingles.  "The clusters reported in this way represent a partition of the
   input vertices, and no vertex belongs to two different clusters."

Both are implemented, each with two engines producing identical labels: the
scalar :class:`~repro.graph.unionfind.UnionFind` reference and a vectorized
label-propagation bulk union.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.params import (
    REPORT_OVERLAPPING,
    REPORT_PARTITION,
    UNION_UNIONFIND,
    UNION_VECTORIZED,
)
from repro.core.passresult import PassResult
from repro.graph.components import bipartite_components
from repro.graph.unionfind import (UnionFind, canonical_labels,
                                  union_edge_keys, union_groups)
from repro.obs import get_obs
from repro.util.timer import BUCKET_CPU


def _phase3_groups(pass1: PassResult, pass2: PassResult,
                   include_generators: bool) -> tuple[np.ndarray, np.ndarray]:
    """Vertex groups to union, as segmented flat arrays (offsets, members).

    One group per second-level shingle ``t``: its own ``s2`` constituent
    vertices plus the ``s1`` constituents of every first-level shingle in
    ``L'(t)``.  Transitive merging across groups sharing a first-level
    shingle reproduces exactly the connected components of ``G_II``.

    With ``include_generators`` (extension), one extra group per first-level
    shingle in ``S1'``: the shingle's constituents plus its generator
    vertices ``L(s_j)`` — this recruits generator vertices into the cluster.
    """
    members1 = pass1.members                       # (k1, s1) vertex ids
    members2 = pass2.members                       # (k2, s2) vertex ids
    gens2 = pass2.gen_graph                        # t -> first-level shingles
    s1 = pass1.s
    s2 = pass2.s
    k2 = pass2.n_shingles

    deg = gens2.degrees()
    counts = s2 + deg * s1
    offsets = np.zeros(k2 + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    flat = np.empty(int(offsets[-1]), dtype=np.int64)

    if k2:
        # Part A: each t's own constituent vertices.
        pos_a = (offsets[:-1][:, None] + np.arange(s2, dtype=np.int64)).ravel()
        flat[pos_a] = members2.ravel()
        # Part B: constituents of every first-level shingle f in L'(t).
        if gens2.nnz:
            rank_in_t = np.arange(gens2.nnz, dtype=np.int64) - np.repeat(
                gens2.indptr[:-1], deg)
            base = np.repeat(offsets[:-1], deg) + s2 + rank_in_t * s1
            pos_b = (base[:, None] + np.arange(s1, dtype=np.int64)).ravel()
            flat[pos_b] = members1[gens2.indices].ravel()

    if include_generators:
        in_gii = np.zeros(pass1.n_shingles, dtype=bool)
        if gens2.nnz:
            in_gii[gens2.indices] = True
        f_ids = np.flatnonzero(in_gii)
        gens1 = pass1.gen_graph
        extra_counts = 1 + (gens1.indptr[f_ids + 1] - gens1.indptr[f_ids])
        extra_offsets = offsets[-1] + np.concatenate(
            [[0], np.cumsum(extra_counts)])
        extra_flat = np.empty(int(extra_counts.sum()), dtype=np.int64)
        cursor = 0
        for f, cnt in zip(f_ids.tolist(), extra_counts.tolist()):
            extra_flat[cursor] = members1[f, 0]
            extra_flat[cursor + 1:cursor + cnt] = gens1.neighbors(f)
            cursor += cnt
        offsets = np.concatenate([offsets, extra_offsets[1:]])
        flat = np.concatenate([flat, extra_flat])

    return offsets, flat


def _phase3_edges(pass1: PassResult, pass2: PassResult,
                  include_generators: bool, n_vertices: int) -> np.ndarray:
    """The star edges of :func:`_phase3_groups`, as packed edge keys.

    Each group's star links its leader (first member — ``members2[t, 0]``,
    since ``s2 >= 1``) to every member, so the edges can be emitted without
    materializing the interleaved segmented flat array at all.  Every edge
    is written once, as ``src * n_vertices + dst``, into one int64 array.
    Connectivity (and therefore the canonical labels, which depend only on
    the partition) is identical to running
    :func:`~repro.graph.unionfind.union_groups` on the grouped form.
    """
    members1 = pass1.members
    members2 = pass2.members
    gens2 = pass2.gen_graph
    referenced = np.zeros(pass1.n_shingles, dtype=bool)
    referenced[gens2.indices] = True
    f_ids = np.flatnonzero(referenced)
    lead2 = members2[:, 0] * n_vertices
    lead1 = members1[f_ids, 0] * n_vertices
    own = members2[:, 1:]
    chain = members1[f_ids, 1:]
    if include_generators:
        gens1 = pass1.gen_graph
        deg1 = gens1.degrees()
        gen_mask = np.repeat(referenced, deg1)
        n_gen = int(deg1[f_ids].sum())
    else:
        n_gen = 0
    ends = np.cumsum([own.size, gens2.nnz, chain.size, n_gen])
    keys = np.empty(int(ends[-1]), dtype=np.int64)

    # Part A: each t's own constituent vertices (the leader IS column 0, so
    # only the remaining columns need edges).
    np.add(lead2[:, None], own, out=keys[:ends[0]].reshape(own.shape))
    # Part B: one edge per (t, f) entry to f's *representative* vertex, plus
    # one chain per referenced f linking its other constituents to that
    # representative — transitively equivalent to linking every constituent
    # to every referencing leader, with |entries| + s1*|referenced| edges
    # instead of s1*|entries|.
    entries = keys[ends[0]:ends[1]]
    np.take(members1[:, 0], gens2.indices, out=entries, mode="clip")
    entries += np.repeat(lead2, gens2.degrees())
    np.add(lead1[:, None], chain,
           out=keys[ends[1]:ends[2]].reshape(chain.shape))
    if include_generators:
        # Generator vertices of every referenced f, linked to its leader.
        generators = keys[ends[2]:]
        np.compress(gen_mask, gens1.indices, out=generators)
        generators += np.repeat(lead1, deg1[f_ids])
    return keys


class PartitionFold:
    """Phase III partition labels, folded in one edge batch at a time.

    Holds a running min-vertex root per vertex.  Each :meth:`fold` maps
    both endpoints of its edges through the current roots, drops the edges
    that became self-loops, unions the rest, and composes the result into
    the roots — so no caller ever holds every batch's edges at once, and
    once the first batches have merged the big components most later
    edges cost only the gather.  Labels depend only on the union of all
    folded edges, never on fold order; :meth:`fold` is thread-safe.  All
    of it is host work, charged to the cpu bucket of ``breakdown``.
    """

    def __init__(self, n_vertices: int, breakdown, tracer) -> None:
        self.n_vertices = int(n_vertices)
        self.roots = np.arange(self.n_vertices, dtype=np.int64)
        self._breakdown = breakdown
        self._tracer = tracer
        self._lock = threading.Lock()

    def fold(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Union the edges ``src -> dst`` (broadcast-compatible vertex-id
        arrays)."""
        n = self.n_vertices
        cpu = self._breakdown.timing
        with self._tracer.span("phase3.fold") as span, self._lock:
            with cpu(BUCKET_CPU):
                roots = self.roots
                rs, rd = np.broadcast_arrays(roots[src], roots[dst])
                keep = rs != rd
                keys = rs[keep] * n + rd[keep]
            span.set(n_edges=int(keep.size), n_union_edges=int(keys.size))
            if keys.size == 0:
                return
            with self._tracer.span("phase3.union", backend=UNION_VECTORIZED,
                                   n_vertices=n,
                                   n_union_edges=int(keys.size)), \
                    cpu(BUCKET_CPU):
                self.roots = union_edge_keys(n, keys)[roots]

    def labels(self) -> np.ndarray:
        """Canonical dense labels of the roots folded so far."""
        return canonical_labels(self.roots)


def partition_labels(pass1: PassResult, pass2: PassResult, n_vertices: int,
                     backend: str = UNION_VECTORIZED,
                     include_generators: bool = False) -> np.ndarray:
    """Phase III partition mode: dense per-vertex cluster labels.

    Unclustered vertices end up in singleton clusters.  Labels are canonical
    (sets ordered by their smallest vertex id == order of first appearance),
    so both backends return identical arrays.
    """
    tracer = get_obs().tracer
    if backend == UNION_VECTORIZED:
        keys = _phase3_edges(pass1, pass2, include_generators, n_vertices)
        with tracer.span("phase3.union", backend=backend,
                         n_vertices=n_vertices, n_union_edges=int(keys.size)):
            roots = union_edge_keys(n_vertices, keys)
        return canonical_labels(roots)
    offsets, flat = _phase3_groups(pass1, pass2, include_generators)
    if backend == UNION_UNIONFIND:
        with tracer.span("phase3.union", backend=backend,
                         n_vertices=n_vertices,
                         n_groups=int(offsets.size - 1)):
            uf = UnionFind(n_vertices)
            flat_list = flat.tolist()
            bounds = offsets.tolist()
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                uf.union_group(flat_list[lo:hi])
            return uf.labels()
    raise ValueError(f"unknown union backend {backend!r}")


def overlapping_clusters(pass1: PassResult, pass2: PassResult,
                         include_generators: bool = False) -> list[np.ndarray]:
    """Phase III overlapping mode: one vertex set per component of ``G_II``.

    "This formulation could produce potential overlaps between the output
    clusters, as the same input vertex can be part of two entirely different
    shingles and different connected components."

    Returns clusters as sorted vertex-id arrays, ordered deterministically
    by their smallest component label.
    """
    gens2 = pass2.gen_graph
    k1, k2 = pass1.n_shingles, pass2.n_shingles
    left_labels, right_labels = bipartite_components(
        gens2.indptr, gens2.indices, n_right=k1)

    clusters: dict[int, list[np.ndarray]] = {}
    for t in range(k2):
        clusters.setdefault(int(left_labels[t]), []).append(pass2.members[t])
    referenced = np.zeros(k1, dtype=bool)
    if gens2.nnz:
        referenced[gens2.indices] = True
    for f in np.flatnonzero(referenced).tolist():
        entry = clusters.setdefault(int(right_labels[f]), [])
        entry.append(pass1.members[f])
        if include_generators:
            entry.append(pass1.gen_graph.neighbors(f))

    out = []
    for label in sorted(clusters):
        vertices = np.unique(np.concatenate(clusters[label]))
        out.append(vertices.astype(np.int64))
    return out


def one_shingle_labels(pass1: PassResult, n_vertices: int,
                       backend: str = UNION_VECTORIZED) -> np.ndarray:
    """The aggressive single-level grouping Section III-B rejects.

    "Group two vertices into the same cluster if they share at least one
    shingle" — i.e. union the generator set ``L(f)`` of every first-level
    shingle with at least two generators.  No second pass, no second-level
    shingles.  Kept for the ablation demonstrating why the paper chooses
    the two-level middle ground instead.
    """
    gens = pass1.gen_graph
    sizes = gens.degrees()
    keep = sizes >= 2
    counts = sizes[keep]
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    mask = np.repeat(keep, sizes)
    flat = gens.indices[mask]

    if backend == UNION_VECTORIZED:
        return canonical_labels(union_groups(n_vertices, offsets, flat))
    if backend == UNION_UNIONFIND:
        uf = UnionFind(n_vertices)
        flat_list = flat.tolist()
        bounds = offsets.tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            uf.union_group(flat_list[lo:hi])
        return uf.labels()
    raise ValueError(f"unknown union backend {backend!r}")


def report_clusters(pass1: PassResult, pass2: PassResult, n_vertices: int, *,
                    mode: str = REPORT_PARTITION,
                    backend: str = UNION_VECTORIZED,
                    include_generators: bool = False):
    """Dispatch to the requested Phase III formulation.

    Returns a label array (partition mode) or a list of vertex-id arrays
    (overlapping mode).
    """
    if mode == REPORT_PARTITION:
        return partition_labels(pass1, pass2, n_vertices,
                                backend=backend,
                                include_generators=include_generators)
    if mode == REPORT_OVERLAPPING:
        return overlapping_clusters(pass1, pass2,
                                    include_generators=include_generators)
    raise ValueError(f"unknown report mode {mode!r}")
