"""Tests for repro.graph.unionfind — both the scalar structure and the
vectorized bulk union, which must agree with each other."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.unionfind import (UnionFind, canonical_labels, union_edges,
                                  union_groups)


class TestUnionFind:
    def test_initial_state(self):
        uf = UnionFind(5)
        assert len(uf) == 5
        assert uf.n_components == 5
        assert all(uf.find(i) == i for i in range(5))

    def test_union_and_find(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        assert uf.connected(0, 1)
        assert not uf.connected(0, 2)
        assert uf.n_components == 3

    def test_idempotent_union(self):
        uf = UnionFind(3)
        uf.union(0, 1)
        uf.union(1, 0)
        assert uf.n_components == 2

    def test_set_size(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.set_size(2) == 3
        assert uf.set_size(5) == 1

    def test_union_group(self):
        uf = UnionFind(6)
        uf.union_group(np.array([1, 3, 5]))
        assert uf.connected(1, 5) and uf.connected(3, 5)
        assert uf.n_components == 4

    def test_union_group_trivial(self):
        uf = UnionFind(3)
        uf.union_group(np.array([2]))
        uf.union_group(np.array([], dtype=np.int64))
        assert uf.n_components == 3

    def test_union_many(self):
        uf = UnionFind(6)
        uf.union_many(np.array([0, 2]), np.array([1, 3]))
        assert uf.connected(0, 1) and uf.connected(2, 3)

    def test_union_many_shape_mismatch(self):
        uf = UnionFind(4)
        with pytest.raises(ValueError):
            uf.union_many(np.array([0]), np.array([1, 2]))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    def test_labels_are_canonical(self):
        uf = UnionFind(5)
        uf.union(3, 4)
        labels = uf.labels()
        # first-appearance order: 0,1,2 singleton, {3,4} shares one label
        assert list(labels[:3]) == [0, 1, 2]
        assert labels[3] == labels[4] == 3

    def test_roots_fully_compressed(self):
        uf = UnionFind(10)
        for i in range(9):
            uf.union(i, i + 1)
        roots = uf.roots()
        assert np.unique(roots).size == 1
        assert np.array_equal(roots, uf._parent)


class TestUnionGroups:
    def test_matches_unionfind(self):
        rng = np.random.default_rng(0)
        n = 60
        groups = [rng.choice(n, size=rng.integers(1, 6), replace=False)
                  for _ in range(15)]
        offsets = np.zeros(len(groups) + 1, dtype=np.int64)
        offsets[1:] = np.cumsum([len(g) for g in groups])
        flat = np.concatenate(groups)

        roots = union_groups(n, offsets, flat)
        uf = UnionFind(n)
        for g in groups:
            uf.union_group(g)
        # same partition (compare canonical forms)
        _, vec_labels = np.unique(roots, return_inverse=True)
        assert np.array_equal(vec_labels, uf.labels())

    def test_empty_groups(self):
        roots = union_groups(4, np.array([0, 0, 0]), np.array([], dtype=np.int64))
        assert np.array_equal(roots, np.arange(4))

    def test_roots_are_set_minima(self):
        offsets = np.array([0, 3])
        flat = np.array([5, 2, 7])
        roots = union_groups(10, offsets, flat)
        assert roots[5] == roots[2] == roots[7] == 2

    def test_transitive_merging_across_groups(self):
        # {0,1} and {1,2} must merge into {0,1,2}
        offsets = np.array([0, 2, 4])
        flat = np.array([0, 1, 1, 2])
        roots = union_groups(5, offsets, flat)
        assert roots[0] == roots[1] == roots[2] == 0
        assert roots[3] == 3

    def test_invalid_offsets_rejected(self):
        with pytest.raises(ValueError):
            union_groups(3, np.array([1, 2]), np.array([0]))
        with pytest.raises(ValueError):
            union_groups(3, np.array([0, 2]), np.array([0]))

    def test_member_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            union_groups(3, np.array([0, 1]), np.array([7]))

    @given(st.lists(st.lists(st.integers(0, 29), min_size=1, max_size=5),
                    min_size=0, max_size=12))
    @settings(max_examples=80)
    def test_property_matches_unionfind(self, group_lists):
        n = 30
        groups = [np.array(sorted(set(g)), dtype=np.int64) for g in group_lists]
        offsets = np.zeros(len(groups) + 1, dtype=np.int64)
        offsets[1:] = np.cumsum([len(g) for g in groups])
        flat = (np.concatenate(groups) if groups
                else np.array([], dtype=np.int64))
        roots = union_groups(n, offsets, flat)
        uf = UnionFind(n)
        for g in groups:
            uf.union_group(g)
        _, vec_labels = np.unique(roots, return_inverse=True)
        assert np.array_equal(vec_labels, uf.labels())


class TestUnionEdges:
    """The one min-label fixpoint behind Phase III, ``graph.components``
    and the baselines, on the edge shapes they produce."""

    def test_empty_edge_list(self):
        empty = np.zeros(0, dtype=np.int64)
        assert np.array_equal(union_edges(7, empty, empty), np.arange(7))

    def test_zero_vertices(self):
        empty = np.zeros(0, dtype=np.int64)
        assert union_edges(0, empty, empty).size == 0

    def test_singleton_components_between_edges(self):
        # Vertices 2, 5 are isolated; components {0,1}, {3,4}, {6,7}.
        got = union_edges(8, np.array([0, 3, 6]), np.array([1, 4, 7]))
        assert np.array_equal(got, [0, 0, 2, 3, 3, 5, 6, 6])

    def test_single_chain(self):
        n = 64
        src = np.arange(n - 1, dtype=np.int64)
        got = union_edges(n, src, src + 1)
        assert np.array_equal(got, np.zeros(n, dtype=np.int64))

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_unionfind_on_random_bipartite(self, data):
        n_left = data.draw(st.integers(1, 12), label="n_left")
        n_right = data.draw(st.integers(1, 12), label="n_right")
        n = n_left + n_right
        n_edges = data.draw(st.integers(0, 40), label="n_edges")
        src = np.array(data.draw(st.lists(
            st.integers(0, n_left - 1),
            min_size=n_edges, max_size=n_edges)), dtype=np.int64)
        dst = np.array(data.draw(st.lists(
            st.integers(n_left, n - 1),
            min_size=n_edges, max_size=n_edges)), dtype=np.int64)
        uf = UnionFind(n)
        uf.union_many(src, dst)
        assert np.array_equal(canonical_labels(union_edges(n, src, dst)),
                              uf.labels())
