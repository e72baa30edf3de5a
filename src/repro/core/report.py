"""Phase III — reporting dense subgraphs from the second-level shingle graph.

Section III-B gives two formulations:

1. **Overlapping**: enumerate connected components of ``G_II``; for each,
   report the vertices of ``G`` constituting its first-level shingles.  The
   same vertex may appear in several clusters.
2. **Partition** (the paper's choice): union-find over all ``n`` vertices;
   per component, union the vertices constituting the first- and second-level
   shingles.  "The clusters reported in this way represent a partition of the
   input vertices, and no vertex belongs to two different clusters."

Both are implemented here with a vectorized label-propagation bulk union.
The scalar :class:`~repro.graph.unionfind.UnionFind` rendition of the
partition is the serial baseline's, in :mod:`repro.core.serial`; the two
return identical labels.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.params import REPORT_OVERLAPPING, REPORT_PARTITION
from repro.core.passresult import PassResult
from repro.graph.components import bipartite_components
from repro.graph.unionfind import (canonical_labels, union_edge_keys,
                                  union_groups)
from repro.obs import get_obs
from repro.util.timer import BUCKET_CPU


def _phase3_edges(pass1: PassResult, pass2: PassResult,
                  n_vertices: int) -> np.ndarray:
    """Phase III's partition edges, as packed edge keys.

    One star per second-level shingle ``t`` links its leader (first
    member — ``members2[t, 0]``, since ``s2 >= 1``) to its other members
    and to the constituents of every first-level shingle in ``L'(t)``;
    transitive merging across stars sharing a first-level shingle
    reproduces exactly the connected components of ``G_II``.  Every edge
    is written once, as ``src * n_vertices + dst``, into one int64 array.
    Connectivity (and therefore the canonical labels, which depend only on
    the partition) is identical to the serial baseline's group-by-group
    union (:func:`repro.core.serial.serial_partition_labels`).
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
    ends = np.cumsum([own.size, gens2.nnz, chain.size])
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
    of it is host work, charged to the cpu bucket of ``breakdown``.  Each
    fold traces as a ``phase3.fold`` span (the root map and the self-loop
    drop) followed, when edges survive, by a ``phase3.union`` span.
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
        self.fold_each(src, (dst,))

    def fold_each(self, src: np.ndarray, dsts) -> None:
        """:meth:`fold` ``(src, dst)`` for each ``dst`` in turn, under one
        lock and one cpu-bucket region."""
        n = self.n_vertices
        tracer = self._tracer
        with self._lock, self._breakdown.timing(BUCKET_CPU):
            for dst in dsts:
                with tracer.span("phase3.fold") as span:
                    roots = self.roots
                    rs, rd = np.broadcast_arrays(roots[src], roots[dst])
                    keep = rs != rd
                    keys = rs[keep] * n + rd[keep]
                    span.set(n_edges=int(keep.size),
                             n_union_edges=int(keys.size))
                if keys.size == 0:
                    continue
                with tracer.span("phase3.union", n_vertices=n,
                                 n_union_edges=int(keys.size)):
                    self.roots = union_edge_keys(n, keys)[roots]

    def prune(self, leads: np.ndarray, elements: np.ndarray,
              indptr: np.ndarray, lengths: np.ndarray):
        """Keep the lists that can still add a connection.

        List ``i`` (``elements[indptr[i]:indptr[i + 1]]``, non-empty) is
        *settled* once its leader ``leads[i]`` and each of its ids share
        one root: roots only merge, so every later edge from the leader to
        one of those ids is a self-loop.  One gather, compare and
        ``logical_or.reduceat`` find the unsettled lists; returns their
        ``(leads, elements, indptr, lengths)``, the arguments themselves
        when none is settled.  Any snapshot of the roots is a valid one
        to prune against, so this takes no lock.  Cpu bucket, traced as
        ``exec.pass2_prune``.
        """
        with self._breakdown.timing(BUCKET_CPU), \
                self._tracer.span("exec.pass2_prune",
                                  n_lists=int(leads.size)) as span:
            roots = self.roots
            differs = roots[elements] != np.repeat(roots[leads], lengths)
            keep = np.logical_or.reduceat(differs, indptr[:-1])
            n_keep = int(np.count_nonzero(keep))
            span.set(n_unsettled=n_keep)
            if n_keep == leads.size:
                return leads, elements, indptr, lengths
            elements = elements[np.repeat(keep, lengths)]
            lengths = lengths[keep]
            indptr = np.zeros(n_keep + 1, dtype=np.int64)
            np.cumsum(lengths, out=indptr[1:])
            return leads[keep], elements, indptr, lengths

    def labels(self) -> np.ndarray:
        """Canonical dense labels of the roots folded so far."""
        return canonical_labels(self.roots)


def partition_labels(pass1: PassResult, pass2: PassResult,
                     n_vertices: int) -> np.ndarray:
    """Phase III partition mode: dense per-vertex cluster labels.

    Unclustered vertices end up in singleton clusters.  Labels are canonical
    (sets ordered by their smallest vertex id == order of first appearance),
    so they equal the serial baseline's scalar union-find labels.
    """
    keys = _phase3_edges(pass1, pass2, n_vertices)
    with get_obs().tracer.span("phase3.union", n_vertices=n_vertices,
                               n_union_edges=int(keys.size)):
        roots = union_edge_keys(n_vertices, keys)
    return canonical_labels(roots)


def overlapping_clusters(pass1: PassResult,
                         pass2: PassResult) -> list[np.ndarray]:
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
        clusters.setdefault(int(right_labels[f]), []).append(pass1.members[f])

    out = []
    for label in sorted(clusters):
        vertices = np.unique(np.concatenate(clusters[label]))
        out.append(vertices.astype(np.int64))
    return out


def one_shingle_labels(pass1: PassResult, n_vertices: int) -> np.ndarray:
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
    offsets = np.zeros(int(keep.sum()) + 1, dtype=np.int64)
    np.cumsum(sizes[keep], out=offsets[1:])
    flat = gens.indices[np.repeat(keep, sizes)]
    return canonical_labels(union_groups(n_vertices, offsets, flat))


def report_clusters(pass1: PassResult, pass2: PassResult, n_vertices: int, *,
                    mode: str = REPORT_PARTITION):
    """Dispatch to the requested Phase III formulation.

    Returns a label array (partition mode) or a list of vertex-id arrays
    (overlapping mode).
    """
    if mode == REPORT_PARTITION:
        return partition_labels(pass1, pass2, n_vertices)
    if mode == REPORT_OVERLAPPING:
        return overlapping_clusters(pass1, pass2)
    raise ValueError(f"unknown report mode {mode!r}")
