"""GOS k-neighbor linkage clustering.

The comparator of the paper's quality study: "To compute the protein family
relationship, the GOS team used a k-neighbor linkage (k=10) based graph
heuristic" — "two vertices are included into a cluster if they share a fixed
number (k) of neighbors" (Section IV-D).

We implement it as: link every *adjacent* pair (u, v) with
``|Γ(u) ∩ Γ(v)| >= k``, then report connected components of the linked
relation.  Restricting candidate pairs to graph edges matches the GOS
pipeline, where only sequence pairs with detected similarity are considered
for linkage, and keeps the computation at one triangle-count per edge.

The paper's criticism of this method — a fixed k falsely fuses large dense
clusters connected by well-shared bridges, and is blind to clusters whose
members cannot share k neighbors (small or sparse ones) — falls out of the
definition and is what the Table III/IV benches demonstrate.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.unionfind import canonical_labels, union_edges


def shared_neighbor_counts(graph: CSRGraph, edges: np.ndarray | None = None) -> np.ndarray:
    """Number of common neighbors of each edge's endpoints.

    Computed sparsely as the triangle support of each edge:
    ``count(u, v) = (A @ A)[u, v]`` restricted to edge positions.
    """
    # SciPy costs ~0.2 s to import; only the comparator runs pay for it.
    import scipy.sparse as sp

    if edges is None:
        edges = graph.edges()
    if edges.size == 0:
        return np.zeros(0, dtype=np.int64)
    n = graph.n_vertices
    a = sp.csr_matrix(
        (np.ones(graph.nnz, dtype=np.int64), graph.indices, graph.indptr),
        shape=(n, n))
    a2 = (a @ a).tocsr()
    counts = np.asarray(a2[edges[:, 0], edges[:, 1]]).ravel().astype(np.int64)
    return counts


def gos_kneighbor_clustering(graph: CSRGraph, k: int = 10) -> np.ndarray:
    """GOS k-neighbor linkage; returns dense per-vertex cluster labels.

    Vertices never linked end up in singleton clusters.  ``k=10`` is the
    GOS project's published setting.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    edges = graph.edges()
    counts = shared_neighbor_counts(graph, edges)
    linked = edges[counts >= k]
    return canonical_labels(
        union_edges(graph.n_vertices, linked[:, 0], linked[:, 1]))
