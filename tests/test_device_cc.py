"""Phase III connected components of 1-, 2- and 4-stream runs — edge cases.

Whatever the stream count, a run's components come out of the one host
union (``union_edge_keys``) over the edges every trial chunk produces.
The labels must equal the serial reference on every shape Phase III can
see: no edges, no vertices, isolated vertices between clusters, one
component built from every chunk's trials, more streams than trial
chunks, an empty G_II, and components whose edges span trial-chunk
boundaries.
"""

import numpy as np
import pytest

from repro.core.params import ShinglingParams
from repro.core.pipeline import GpClust, SerialPClust
from repro.graph.csr import CSRGraph
from repro.synthdata.planted import PlantedFamilyConfig, planted_family_graph

BASE = ShinglingParams(s1=2, c1=8, s2=2, c2=6, trial_chunk=2)


def _labels(graph, params, streams):
    """Labels of a ``streams``-stream run, checked against serial."""
    got = GpClust(params.with_overrides(streams=streams)).run(graph).labels
    assert np.array_equal(got, SerialPClust(params).run(graph).labels)
    return got


def _clique(vertices):
    return [(a, b) for i, a in enumerate(vertices) for b in vertices[i + 1:]]


class TestEdgeCases:
    @pytest.mark.parametrize("streams", [1, 2, 4])
    def test_empty_edge_list(self, streams):
        graph = CSRGraph.from_edges(np.zeros((0, 2), dtype=np.int64),
                                    n_vertices=7)
        got = _labels(graph, BASE, streams)
        assert np.array_equal(got, np.arange(7))

    @pytest.mark.parametrize("streams", [1, 2, 4])
    def test_zero_vertices(self, streams):
        graph = CSRGraph.from_edges(np.zeros((0, 2), dtype=np.int64),
                                    n_vertices=0)
        assert _labels(graph, BASE, streams).size == 0

    @pytest.mark.parametrize("streams", [1, 2, 4])
    def test_singleton_components_between_edges(self, streams):
        # Vertices 5 and 11 are isolated between three cliques.
        graph = CSRGraph.from_edges(_clique([0, 1, 2, 3, 4])
                                    + _clique([6, 7, 8, 9, 10])
                                    + _clique([12, 13, 14, 15]))
        got = _labels(graph, BASE, streams)
        assert np.array_equal(got, [0] * 5 + [1] + [2] * 5 + [3] + [4] * 4)

    @pytest.mark.parametrize("streams", [1, 2, 4])
    def test_single_chain_spanning_all_shards(self, streams):
        # A band of overlapping 4-cliques along 0..63: with the trials
        # dealt out across streams, every chunk contributes edges of the
        # same component, which only the union over all of them joins.
        n = 64
        graph = CSRGraph.from_edges(
            [(i, j) for i in range(n) for j in range(i + 1, min(n, i + 4))])
        got = _labels(graph, BASE, streams)
        assert np.array_equal(got, np.zeros(n, dtype=np.int64))

    def test_fewer_trial_chunks_than_streams(self):
        # 4 streams with 2 edges and 2 one-trial chunks per pass leave
        # streams without work.
        graph = CSRGraph.from_edges([(0, 1), (5, 6)], n_vertices=8)
        params = ShinglingParams(s1=1, c1=2, s2=1, c2=2, trial_chunk=1)
        got = _labels(graph, params, 4)
        assert np.array_equal(got, [0, 0, 1, 2, 3, 4, 4, 5])


class TestPipelineEdgeCases:
    def test_empty_g2_all_singletons(self):
        # Every vertex has degree 1 < s1, so no shingles are ever made,
        # G_II is empty, and every vertex is its own cluster.
        graph = CSRGraph.from_edges([(2 * i, 2 * i + 1) for i in range(10)])
        params = ShinglingParams(s1=2, c1=4, s2=2, c2=4)
        res = GpClust(params).run(graph)
        assert np.array_equal(res.labels, np.arange(graph.n_vertices))
        serial = SerialPClust(params).run(graph)
        assert np.array_equal(res.labels, serial.labels)

    @pytest.mark.parametrize("streams", [1, 2, 4])
    def test_components_span_trial_chunk_boundaries(self, streams):
        # trial_chunk=1 maximizes cross-chunk partials (completed out of
        # order under several streams); labels must not depend on the
        # chunking.
        pg = planted_family_graph(PlantedFamilyConfig(n_families=6), seed=3)
        base = ShinglingParams(s1=2, c1=6, s2=2, c2=4)
        ref = GpClust(base).run(pg.graph)
        got = GpClust(base.with_overrides(trial_chunk=1,
                                          streams=streams)).run(pg.graph)
        assert np.array_equal(got.labels, ref.labels)
