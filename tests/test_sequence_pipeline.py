"""Tests for the sequence generator and the homology-graph pipeline."""

import numpy as np
import pytest

from repro.sequence.generator import SequenceFamilyConfig, generate_protein_families
from repro.sequence.homology import HomologyConfig, build_homology_graph
from repro.sequence.smith_waterman import self_score, sw_score_linear


class TestGenerator:
    @pytest.fixture(scope="class")
    def protein_set(self):
        return generate_protein_families(
            SequenceFamilyConfig(n_families=6), seed=2)

    def test_ground_truth_shapes(self, protein_set):
        ps = protein_set
        assert ps.family_labels.size == ps.n_sequences
        assert ps.is_core.size == ps.n_sequences

    def test_family_sizes_at_least_three(self, protein_set):
        fam_sizes = np.bincount(protein_set.family_labels)[:6]
        assert fam_sizes.min() >= 3

    def test_singletons_have_unique_labels(self, protein_set):
        labels = protein_set.family_labels
        singleton_labels = labels[labels >= 6]
        assert np.unique(singleton_labels).size == singleton_labels.size

    def test_core_members_similar_to_each_other(self, protein_set):
        ps = protein_set
        fam0_core = [i for i in range(ps.n_sequences)
                     if ps.family_labels[i] == 0 and ps.is_core[i]]
        a, b = ps.sequences[fam0_core[0]], ps.sequences[fam0_core[1]]
        score = sw_score_linear(a, b)
        assert score > 0.5 * min(self_score(a), self_score(b))

    def test_cross_family_sequences_dissimilar(self, protein_set):
        ps = protein_set
        first_of = {}
        for i in range(ps.n_sequences):
            first_of.setdefault(int(ps.family_labels[i]), i)
        a, b = ps.sequences[first_of[0]], ps.sequences[first_of[1]]
        score = sw_score_linear(a, b)
        assert score < 0.3 * min(self_score(a), self_score(b))

    def test_fragmenting_bounds_lengths(self):
        cfg = SequenceFamilyConfig(n_families=4, fragment=True,
                                   fragment_length=(50, 80))
        ps = generate_protein_families(cfg, seed=1)
        assert max(len(s) for s in ps.sequences) <= 80

    def test_deterministic(self):
        a = generate_protein_families(seed=7)
        b = generate_protein_families(seed=7)
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.sequences, b.sequences))

    def test_fasta_records(self, protein_set):
        records = protein_set.as_fasta_records()
        assert len(records) == protein_set.n_sequences
        assert "family=0" in records[0][0]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SequenceFamilyConfig(n_families=0)
        with pytest.raises(ValueError):
            SequenceFamilyConfig(core_divergence=2.0)
        with pytest.raises(ValueError):
            SequenceFamilyConfig(ancestor_length=(300, 100))


class TestHomologyGraph:
    @pytest.fixture(scope="class")
    def result(self):
        ps = generate_protein_families(
            SequenceFamilyConfig(n_families=6), seed=3)
        return ps, build_homology_graph(ps.sequences)

    def test_graph_covers_all_sequences(self, result):
        ps, res = result
        assert res.graph.n_vertices == ps.n_sequences

    def test_edges_mostly_within_families(self, result):
        ps, res = result
        edges = res.graph.edges()
        same = ps.family_labels[edges[:, 0]] == ps.family_labels[edges[:, 1]]
        assert same.mean() > 0.95

    def test_core_members_connected(self, result):
        ps, res = result
        fam0_core = [i for i in range(ps.n_sequences)
                     if ps.family_labels[i] == 0 and ps.is_core[i]]
        degrees = res.graph.degrees()[fam0_core]
        assert np.all(degrees >= 1)

    def test_candidates_superset_of_edges(self, result):
        _, res = result
        assert res.n_candidate_pairs >= res.n_edges

    def test_threshold_monotonicity(self):
        ps = generate_protein_families(
            SequenceFamilyConfig(n_families=4), seed=5)
        loose = build_homology_graph(
            ps.sequences, HomologyConfig(min_normalized_score=0.3))
        strict = build_homology_graph(
            ps.sequences, HomologyConfig(min_normalized_score=0.7))
        assert strict.n_edges <= loose.n_edges

    def test_empty_input(self):
        res = build_homology_graph([])
        assert res.graph.n_vertices == 0
        assert res.n_edges == 0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            HomologyConfig(min_normalized_score=0.0)
        with pytest.raises(ValueError):
            HomologyConfig(chunk_size=0)

    @pytest.mark.parametrize("penalty", [
        {"gap": -3}, {"gap_model": "affine", "gap_open": -2},
        {"gap_model": "affine", "gap_extend": -1}])
    def test_negative_gap_penalty_rejected(self, penalty):
        # Rejected at construction, so no backend ever scores with it.
        with pytest.raises(ValueError, match="gap penalties"):
            HomologyConfig(**penalty)
