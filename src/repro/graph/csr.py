"""Compressed sparse row (adjacency list) storage for undirected graphs.

The paper's input is "the input graph in an adjacency list format" — a
similarity graph ``G(V, E)`` where vertices are protein sequences and edges
mark significant pairwise similarity.  We store it as CSR: a flat ``indices``
array of neighbor ids partitioned by an ``indptr`` offsets array.  This is
exactly the contiguous layout the GPU path wants (batches of adjacency lists
in one continuous device buffer with boundary markers, Figure 4).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


class CSRGraph:
    """Undirected graph in CSR adjacency-list form.

    Invariants (validated on construction):

    * ``indptr`` is nondecreasing, starts at 0, ends at ``len(indices)``.
    * Every neighbor id lies in ``[0, n_vertices)``.
    * Neighbor lists are sorted and duplicate-free.
    * The adjacency is symmetric (``v in Γ(u)`` iff ``u in Γ(v)``) and has no
      self-loops.  Symmetry validation is O(m log m) so it is optional.
    """

    __slots__ = ("indptr", "indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, validate: bool = True,
                 check_symmetry: bool = False) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        if validate:
            self._validate(check_symmetry=check_symmetry)

    def _validate(self, check_symmetry: bool) -> None:
        if self.indptr.ndim != 1 or self.indptr.size < 1:
            raise ValueError("indptr must be a 1-D array of length >= 1")
        if self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if self.indptr[-1] != self.indices.size:
            raise ValueError(
                f"indptr must end at len(indices)={self.indices.size}, got {self.indptr[-1]}"
            )
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        n = self.n_vertices
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= n:
                raise ValueError("neighbor id out of range")
        # sorted + dedup within each list: every adjacent pair rises,
        # except the pairs that straddle a list boundary
        if self.indices.size:
            rising = self.indices[1:] > self.indices[:-1]
            bounds = self.indptr[1:-1]
            bounds = bounds[(bounds > 0) & (bounds < self.indices.size)]
            rising[bounds - 1] = True
            if not rising.all():
                raise ValueError("neighbor lists must be sorted and duplicate-free")
            # no self-loops
            owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
            if np.any(owner == self.indices):
                raise ValueError("self-loops are not allowed")
            if check_symmetry:
                fwd = np.stack([owner, self.indices], axis=1)
                rev = np.stack([self.indices, owner], axis=1)
                fwd_v = fwd[np.lexsort((fwd[:, 1], fwd[:, 0]))]
                rev_v = rev[np.lexsort((rev[:, 1], rev[:, 0]))]
                if not np.array_equal(fwd_v, rev_v):
                    raise ValueError("adjacency is not symmetric")

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(cls, edges: np.ndarray | Iterable[tuple[int, int]], n_vertices: int | None = None) -> "CSRGraph":
        """Build an undirected CSR graph from an edge list.

        Edges are symmetrized, deduplicated, and self-loops dropped; vertex
        count defaults to ``max id + 1``.
        """
        edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                           dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must have shape (m, 2), got {edges.shape}")
        if edges.size and edges.min() < 0:
            raise ValueError("negative vertex id in edge list")
        if n_vertices is None:
            n_vertices = int(edges.max()) + 1 if edges.size else 0
        elif edges.size and edges.max() >= n_vertices:
            raise ValueError(f"edge endpoint {edges.max()} >= n_vertices {n_vertices}")

        # Drop self loops, symmetrize, dedup.
        mask = edges[:, 0] != edges[:, 1]
        edges = edges[mask]
        both = np.concatenate([edges, edges[:, ::-1]], axis=0)
        if both.size:
            keys = both[:, 0] * np.int64(n_vertices) + both[:, 1]
            uniq = np.unique(keys)
            src = uniq // n_vertices
            dst = uniq % n_vertices
        else:
            src = dst = np.empty(0, dtype=np.int64)

        counts = np.bincount(src, minlength=n_vertices)
        indptr = np.zeros(n_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # uniq keys are already sorted by (src, dst), so dst is grouped+sorted.
        return cls(indptr, dst, validate=False)

    @classmethod
    def from_adjacency(cls, adjacency: Iterable[Iterable[int]]) -> "CSRGraph":
        """Build from per-vertex neighbor iterables (symmetry not enforced)."""
        lists = [np.asarray(sorted(set(a)), dtype=np.int64) for a in adjacency]
        indptr = np.zeros(len(lists) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(a) for a in lists])
        indices = np.concatenate(lists) if lists else np.empty(0, dtype=np.int64)
        return cls(indptr, indices)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def n_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def n_edges(self) -> int:
        """Number of undirected edges (each stored twice in CSR)."""
        return int(self.indices.size) // 2

    @property
    def nnz(self) -> int:
        """Number of stored directed arcs (= 2 * n_edges)."""
        return int(self.indices.size)

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of ``Γ(v)`` (sorted neighbor ids)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        """All vertex degrees as one array."""
        return np.diff(self.indptr)

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        return bool(i < nbrs.size and nbrs[i] == v)

    def edges(self) -> np.ndarray:
        """Unique undirected edges as an ``(m, 2)`` array with ``u < v``."""
        owner = np.repeat(np.arange(self.n_vertices, dtype=np.int64), self.degrees())
        mask = owner < self.indices
        return np.stack([owner[mask], self.indices[mask]], axis=1)

    def non_singleton_vertices(self) -> np.ndarray:
        """Ids of vertices with degree >= 1.

        The paper discards singleton vertices before clustering ("they will
        be ignored in the subsequent analysis as they do not affect the final
        result").
        """
        return np.flatnonzero(self.degrees() > 0)

    def subgraph(self, vertices: np.ndarray) -> tuple["CSRGraph", np.ndarray]:
        """Induced subgraph on ``vertices``; returns (graph, old-id map)."""
        vertices = np.unique(np.asarray(vertices, dtype=np.int64))
        remap = np.full(self.n_vertices, -1, dtype=np.int64)
        remap[vertices] = np.arange(vertices.size, dtype=np.int64)
        edges = self.edges()
        keep = (remap[edges[:, 0]] >= 0) & (remap[edges[:, 1]] >= 0)
        sub_edges = remap[edges[keep]]
        return CSRGraph.from_edges(sub_edges, n_vertices=vertices.size), vertices

    def __iter__(self) -> Iterator[np.ndarray]:
        for v in range(self.n_vertices):
            yield self.neighbors(v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return np.array_equal(self.indptr, other.indptr) and np.array_equal(
            self.indices, other.indices
        )

    def __repr__(self) -> str:
        return f"CSRGraph(n_vertices={self.n_vertices}, n_edges={self.n_edges})"
