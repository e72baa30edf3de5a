"""Tests for repro.pipeline (workloads + end-to-end driver)."""

import numpy as np
import pytest

from repro.core.params import ShinglingParams
from repro.pipeline.end_to_end import run_end_to_end
from repro.pipeline.workloads import (
    WORKLOADS,
    make_large_workload,
    make_quality_workload,
    make_runtime_workload,
)
from repro.sequence.generator import SequenceFamilyConfig, generate_protein_families
from repro.sequence.homology import HomologyConfig


class TestEndToEnd:
    def test_custom_protein_set(self):
        ps = generate_protein_families(
            SequenceFamilyConfig(n_families=5), seed=8)
        report = run_end_to_end(protein_set=ps)
        assert report.protein_set is ps
        assert report.clustering.n_vertices == ps.n_sequences

    def test_custom_homology_config(self):
        report = run_end_to_end(
            sequence_config=SequenceFamilyConfig(n_families=5),
            homology_config=HomologyConfig(min_normalized_score=0.3),
            seed=3)
        strict = run_end_to_end(
            sequence_config=SequenceFamilyConfig(n_families=5),
            homology_config=HomologyConfig(min_normalized_score=0.8),
            seed=3)
        assert report.homology.n_edges >= strict.homology.n_edges

    def test_custom_params(self):
        report = run_end_to_end(
            sequence_config=SequenceFamilyConfig(n_families=4),
            params=ShinglingParams(c1=10, c2=5, seed=1), seed=2)
        assert report.clustering.params.c1 == 10

    def test_summary_keys(self):
        report = run_end_to_end(
            sequence_config=SequenceFamilyConfig(n_families=4), seed=5)
        summary = report.summary()
        for key in ("n_sequences", "n_edges", "ppv", "sensitivity",
                    "density", "seconds"):
            assert key in summary

    def test_min_cluster_size_filter(self):
        a = run_end_to_end(
            sequence_config=SequenceFamilyConfig(n_families=5),
            min_cluster_size=2, seed=6)
        b = run_end_to_end(
            sequence_config=SequenceFamilyConfig(n_families=5),
            min_cluster_size=10, seed=6)
        # stricter filter keeps fewer clustered pairs -> SE can only drop
        assert b.quality.sensitivity <= a.quality.sensitivity


class TestWorkloadRegistry:
    @pytest.mark.parametrize("name", ["20k", "2m", "quality"])
    def test_make_callable(self, name):
        obj = WORKLOADS[name].make("small")
        assert obj.graph.n_vertices > 0

    def test_large_workload(self):
        graph = make_large_workload("small")
        assert graph.n_vertices == 2**16
        assert WORKLOADS["large"].params("small").c1 == 16

    def test_paper_tier_larger(self):
        small = make_runtime_workload("2m", "small")
        paper = make_runtime_workload("2m", "paper")
        assert paper.graph.n_edges > 2 * small.graph.n_edges

    def test_quality_workload_deterministic(self):
        a = make_quality_workload("small", seed=11)
        b = make_quality_workload("small", seed=11)
        assert a.graph == b.graph

    def test_descriptions_present(self):
        for workload in WORKLOADS.values():
            assert workload.description
