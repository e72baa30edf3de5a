"""Brute-force pairwise neighborhood-Jaccard clustering.

Section III-B motivates Shingling against exactly this method: "a brute-force
way to detect vertices that are part of the same dense subgraph would be to
compute the Jaccard Index ... for every pair of vertices.  This pairwise
neighbor comparison method leads to an expensive quadratical computation."

It is implemented here (a) as the oracle that small-graph tests compare the
Shingling heuristic's recall against, and (b) as the quadratic baseline of
the ablation benches.  Only suitable for graphs of a few thousand vertices.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.unionfind import canonical_labels, union_edges

#: Refuse to go quadratic beyond this many vertices.
MAX_BRUTE_FORCE_VERTICES = 20_000


def jaccard_matrix(graph: CSRGraph) -> np.ndarray:
    """Dense ``(n, n)`` matrix of pairwise neighborhood Jaccard indices.

    ``J[u, v] = |Γ(u) ∩ Γ(v)| / |Γ(u) ∪ Γ(v)|`` (Equation 1); 0 when both
    neighborhoods are empty.
    """
    n = graph.n_vertices
    if n > MAX_BRUTE_FORCE_VERTICES:
        raise ValueError(
            f"brute-force Jaccard is quadratic; refusing n={n} > "
            f"{MAX_BRUTE_FORCE_VERTICES}")
    adj = np.zeros((n, n), dtype=np.int64)
    owner = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    adj[owner, graph.indices] = 1
    inter = adj @ adj.T
    deg = graph.degrees()
    union = deg[:, None] + deg[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        j = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
    return j


def jaccard_bruteforce_clustering(graph: CSRGraph, threshold: float = 0.5,
                                  require_edge: bool = True) -> np.ndarray:
    """Cluster by linking pairs with neighborhood Jaccard >= ``threshold``.

    Parameters
    ----------
    graph:
        Input similarity graph.
    threshold:
        Minimum Jaccard index to link a pair.
    require_edge:
        When True (default), only adjacent pairs can link — the variant
        comparable to the other methods; when False, any vertex pair may
        link (the pure Gibson-style dense-subgraph relation).

    Returns
    -------
    np.ndarray
        Dense per-vertex cluster labels (connected components of the linked
        relation).
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    j = jaccard_matrix(graph)
    iu, ju = np.triu_indices(graph.n_vertices, k=1)
    linked = j[iu, ju] >= threshold
    if require_edge:
        owner = np.repeat(np.arange(graph.n_vertices, dtype=np.int64),
                          graph.degrees())
        adj = np.zeros(j.shape, dtype=bool)
        adj[owner, graph.indices] = True
        linked &= adj[iu, ju]
    return canonical_labels(
        union_edges(graph.n_vertices, iu[linked], ju[linked]))
