"""Connected-component detection.

Used twice in the pipeline:

* **pClust preprocessing** — the paper's pipeline first breaks the input
  similarity graph into connected components so each can be clustered
  independently (Section I-A, "pClust").
* **Phase III** — dense subgraphs are reported per connected component of the
  second-level shingle graph ``G_II``.

Two interchangeable algorithms are provided and cross-validated by tests:

* ``method="label_propagation"`` — the vectorized Shiloach-Vishkin-style
  min-label hooking + pointer jumping loop of
  :func:`~repro.graph.unionfind.union_edges`.  This is the data-parallel
  formulation (O(log n) rounds of whole-array NumPy ops), matching the
  HPC idiom of keeping hot loops out of the interpreter.
* ``method="bfs"`` — a classic iterative BFS sweep, the straightforward
  serial reference.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.unionfind import canonical_labels, union_edges


def _cc_bfs(graph: CSRGraph) -> np.ndarray:
    """Iterative BFS labeling; serial reference implementation."""
    n = graph.n_vertices
    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    indptr, indices = graph.indptr, graph.indices
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = next_label
        frontier = [start]
        while frontier:
            new_frontier = []
            for u in frontier:
                for v in indices[indptr[u]:indptr[u + 1]].tolist():
                    if labels[v] < 0:
                        labels[v] = next_label
                        new_frontier.append(v)
            frontier = new_frontier
        next_label += 1
    return labels


def connected_components(graph: CSRGraph,
                         method: str = "label_propagation") -> np.ndarray:
    """Per-vertex component labels, dense in ``[0, n_components)``.

    Labels are canonical (order of first vertex appearance), so both methods
    return identical arrays for the same graph.
    """
    if method == "bfs":
        return _cc_bfs(graph)
    if method == "label_propagation":
        edges = graph.edges()
        return canonical_labels(
            union_edges(graph.n_vertices, edges[:, 0], edges[:, 1]))
    raise ValueError(f"unknown method {method!r}")


def bipartite_components(indptr: np.ndarray, indices: np.ndarray, n_right: int) -> tuple[np.ndarray, np.ndarray]:
    """Components of a bipartite left->right adjacency.

    Returns ``(left_labels, right_labels)`` where a left node and a right node
    share a label iff they are in the same connected component.  Labels are
    min-node roots, neither dense nor canonical (use for grouping only).
    Isolated right nodes (never referenced) get their own singleton labels.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    n_left = indptr.size - 1
    # Model left node i as vertex i, right node j as vertex n_left + j.
    owner = np.repeat(np.arange(n_left, dtype=np.int64), np.diff(indptr))
    labels = union_edges(n_left + n_right, owner, indices + n_left)
    return labels[:n_left], labels[n_left:]


def component_sizes(labels: np.ndarray) -> np.ndarray:
    """Sizes of each component given dense labels."""
    if labels.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.bincount(labels)


def largest_component_size(graph: CSRGraph) -> int:
    """Size of the largest connected component (Table II's ``Largest CC``).

    Matches the paper's convention of measuring over non-singleton vertices
    implicitly: singletons are size-1 components and never the largest in any
    interesting graph.
    """
    labels = connected_components(graph)
    sizes = component_sizes(labels)
    return int(sizes.max()) if sizes.size else 0
