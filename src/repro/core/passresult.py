"""Result of one shingling pass: the bipartite shingle graph.

A pass converts an adjacency structure (left nodes with element lists) into
the next-level bipartite graph: distinct shingles on the left, each with

* its **members** — the ``s`` elements constituting the shingle (for pass 1
  and pass 2 alike these are vertex ids of the input graph ``G``, because
  pass 2 shingles the generator lists ``L(s_j)``, which contain vertices);
* its **generators** — the left nodes of the pass input whose lists produced
  it (vertices for pass 1; first-level shingle indices for pass 2).

This is exactly ``G_I(S1, V')`` / ``G_II(S2, S1')`` from Figure 2 in
adjacency-list form, plus the member tuples Phase III needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.bipartite import BipartiteCSR


@dataclass(frozen=True)
class PassResult:
    """Distinct shingles produced by one pass.

    Attributes
    ----------
    fingerprints:
        ``(k,)`` uint64, sorted ascending — the distinct shingle identities.
    members:
        ``(k, s)`` int64 — constituent element ids in min-hash order.
    gen_graph:
        BipartiteCSR with ``n_left == k``; ``gen_graph.neighbors(i)`` is the
        sorted list of generator ids of shingle ``i`` (the set ``L(s_i)``).
    n_input_segments:
        Number of left nodes in the pass input (for bookkeeping).
    n_distinct:
        Distinct shingles the pass found, counting those a
        :meth:`with_min_generators` filter dropped; ``k`` when omitted.
    """

    fingerprints: np.ndarray
    members: np.ndarray
    gen_graph: BipartiteCSR
    n_input_segments: int
    n_distinct: int | None = None

    def __post_init__(self) -> None:
        k = self.fingerprints.size
        if self.n_distinct is None:
            object.__setattr__(self, "n_distinct", k)
        elif self.n_distinct < k:
            raise ValueError("n_distinct must be >= the fingerprint count")
        if self.members.shape[0] != k:
            raise ValueError("members row count must equal fingerprint count")
        if self.gen_graph.n_left != k:
            raise ValueError("gen_graph left size must equal fingerprint count")
        fps = self.fingerprints
        if k > 1 and not np.all(fps[1:] > fps[:-1]):
            raise ValueError("fingerprints must be sorted ascending and distinct")

    @property
    def n_shingles(self) -> int:
        return int(self.fingerprints.size)

    @property
    def s(self) -> int:
        return int(self.members.shape[1]) if self.members.ndim == 2 else 0

    def with_min_generators(self, m: int) -> "PassResult":
        """The shingles with at least ``m`` generators, in the same order.

        ``n_distinct`` is kept, so it still counts every distinct shingle
        of the pass.  Returns ``self`` when nothing is dropped.
        """
        degrees = self.gen_graph.degrees()
        keep = degrees >= m
        if keep.all():
            return self
        indptr = np.zeros(int(np.count_nonzero(keep)) + 1, dtype=np.int64)
        np.cumsum(degrees[keep], out=indptr[1:])
        gens = BipartiteCSR(indptr,
                            self.gen_graph.indices[np.repeat(keep, degrees)],
                            n_right=self.gen_graph.n_right, validate=False)
        return PassResult(self.fingerprints[keep], self.members[keep], gens,
                          self.n_input_segments, n_distinct=self.n_distinct)

    def generator_lists(self) -> BipartiteCSR:
        """Alias emphasizing that gen_graph's lists are the ``L(s_j)`` sets."""
        return self.gen_graph

    def next_pass_input(self) -> tuple[np.ndarray, np.ndarray]:
        """The adjacency structure the next pass shingles: ``(indptr, elements)``.

        Pass 2's input lists are the generator lists of pass 1 ("Using G_I as
        the new input", Section III-B).
        """
        return self.gen_graph.indptr, self.gen_graph.indices

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PassResult):
            return NotImplemented
        return (
            np.array_equal(self.fingerprints, other.fingerprints)
            and np.array_equal(self.members, other.members)
            and self.gen_graph == other.gen_graph
            and self.n_distinct == other.n_distinct
        )

    def __repr__(self) -> str:
        return (f"PassResult(n_shingles={self.n_shingles}, s={self.s}, "
                f"generators_nnz={self.gen_graph.nnz}, "
                f"n_distinct={self.n_distinct})")
