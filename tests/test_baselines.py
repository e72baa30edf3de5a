"""Tests for the baseline clustering methods."""

import numpy as np
import pytest

from repro.baselines.gos_kneighbor import gos_kneighbor_clustering, shared_neighbor_counts
from repro.baselines.jaccard import (
    MAX_BRUTE_FORCE_VERTICES,
    jaccard_bruteforce_clustering,
    jaccard_matrix,
)
from repro.graph.components import connected_components
from repro.graph.csr import CSRGraph


def clique(n, base=0):
    return [(base + i, base + j) for i in range(n) for j in range(i + 1, n)]


class TestSharedNeighborCounts:
    def test_triangle(self, triangle_graph):
        edges = triangle_graph.edges()
        counts = shared_neighbor_counts(triangle_graph, edges)
        assert list(counts) == [1, 1, 1]  # each edge closes one triangle

    def test_clique_counts(self):
        g = CSRGraph.from_edges(clique(6))
        counts = shared_neighbor_counts(g)
        assert np.all(counts == 4)  # every pair in K6 shares 4 neighbors

    def test_path_has_no_shared(self, path_graph):
        counts = shared_neighbor_counts(path_graph)
        assert np.all(counts == 0)

    def test_empty_graph(self):
        g = CSRGraph.from_edges(np.empty((0, 2), dtype=np.int64), n_vertices=3)
        assert shared_neighbor_counts(g).size == 0

    def test_matches_bruteforce(self, blocky_graph):
        edges = blocky_graph.edges()
        counts = shared_neighbor_counts(blocky_graph, edges)
        for (u, v), c in list(zip(edges.tolist(), counts.tolist()))[:50]:
            expected = np.intersect1d(blocky_graph.neighbors(u),
                                      blocky_graph.neighbors(v)).size
            assert c == expected


class TestGosKNeighbor:
    def test_clique_with_low_k_clusters(self):
        g = CSRGraph.from_edges(clique(8))
        labels = gos_kneighbor_clustering(g, k=3)
        assert np.unique(labels).size == 1

    def test_high_k_blind_to_small_cliques(self):
        g = CSRGraph.from_edges(clique(8))
        labels = gos_kneighbor_clustering(g, k=10)
        assert np.unique(labels).size == 8  # all singletons

    def test_two_cliques_stay_apart(self, two_cliques_graph):
        labels = gos_kneighbor_clustering(two_cliques_graph, k=2)
        assert labels[0] == labels[4]
        assert labels[5] == labels[9]
        assert labels[0] != labels[5]

    def test_k_zero_degenerates_to_single_linkage(self, blocky_graph):
        gos = gos_kneighbor_clustering(blocky_graph, k=0)
        sl = connected_components(blocky_graph)
        assert np.array_equal(gos, sl)

    def test_negative_k_rejected(self, triangle_graph):
        with pytest.raises(ValueError):
            gos_kneighbor_clustering(triangle_graph, k=-1)

    def test_fixed_k_fuses_bridged_cliques(self):
        """The failure mode the paper criticizes: two cliques sharing
        enough boundary support fuse under a fixed k."""
        edges = clique(12) + clique(12, base=12)
        # bridge: vertex 24 adjacent to 6 members of each clique
        for t in range(6):
            edges.append((24, t))
            edges.append((24, 12 + t))
        g = CSRGraph.from_edges(edges, n_vertices=25)
        labels = gos_kneighbor_clustering(g, k=4)
        assert labels[0] == labels[24] == labels[12]


class TestJaccard:
    def test_matrix_values(self, triangle_graph):
        j = jaccard_matrix(triangle_graph)
        # N(0)={1,2}, N(1)={0,2}: intersection {2}? no - {1,2} n {0,2} = {2}
        assert j[0, 1] == pytest.approx(1 / 3)
        assert j[0, 0] == pytest.approx(1.0)

    def test_matrix_symmetric(self, blocky_graph):
        j = jaccard_matrix(blocky_graph)
        assert np.allclose(j, j.T)

    def test_size_guard(self):
        huge = CSRGraph(np.zeros(MAX_BRUTE_FORCE_VERTICES + 2, dtype=np.int64),
                        np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError):
            jaccard_matrix(huge)

    def test_clusters_cliques(self, two_cliques_graph):
        labels = jaccard_bruteforce_clustering(two_cliques_graph, threshold=0.5)
        assert labels[0] == labels[4]
        assert labels[0] != labels[5]

    def test_threshold_validation(self, triangle_graph):
        with pytest.raises(ValueError):
            jaccard_bruteforce_clustering(triangle_graph, threshold=1.5)

    def test_require_edge_flag(self):
        # two vertices with identical neighborhoods but no edge between them
        g = CSRGraph.from_edges([(0, 2), (0, 3), (1, 2), (1, 3)])
        with_edge = jaccard_bruteforce_clustering(g, 0.9, require_edge=True)
        without = jaccard_bruteforce_clustering(g, 0.9, require_edge=False)
        assert with_edge[0] != with_edge[1]
        assert without[0] == without[1]


class TestSingleLinkage:
    def test_components(self, two_cliques_graph):
        labels = connected_components(two_cliques_graph)
        assert np.unique(labels).size == 2
