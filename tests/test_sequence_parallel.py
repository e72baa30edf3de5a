"""Parallel homology construction: determinism, arena, lazy self-scores.

The contract under test is pGraph's: distributing alignment work across
processes is purely an execution-strategy change, so
``build_homology_graph`` must produce bit-identical graphs and scores for
every ``n_jobs`` value, across both gap models.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequence.arena import SequenceArena
from repro.sequence.generator import SequenceFamilyConfig, generate_protein_families
from repro.sequence.homology import (
    HomologyConfig,
    HomologyTimings,
    _shard_bounds,
    build_homology_graph,
)
from repro.sequence.smith_waterman import batch_self_scores, self_score
from tests.conftest import pool_alignment


def random_sequences(seed: int, n_max: int = 30, len_max: int = 60):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max))
    return [rng.integers(0, 21, size=int(rng.integers(0, len_max))).astype(np.uint8)
            for _ in range(n)]


def assert_results_identical(a, b):
    assert np.array_equal(a.graph.indptr, b.graph.indptr)
    assert np.array_equal(a.graph.indices, b.graph.indices)
    assert np.array_equal(a.normalized_scores, b.normalized_scores)
    assert np.array_equal(a.pairs, b.pairs)
    assert a.n_candidate_pairs == b.n_candidate_pairs
    assert a.n_edges == b.n_edges


class TestParallelDeterminism:
    @given(seed=st.integers(0, 10_000),
           gap_model=st.sampled_from(["linear", "affine"]),
           n_jobs=st.sampled_from([0, 2, 3]))
    @settings(max_examples=12, deadline=None)
    def test_parallel_bit_identical_to_serial(self, seed, gap_model, n_jobs):
        sequences = random_sequences(seed)
        # Short single seeds give these random sequences candidate pairs
        # (the default k=5, two shared seeds, almost never fire on them),
        # and tiny chunks force several shards even on small inputs, so
        # the pool path genuinely splits real work.
        base = HomologyConfig(k=3, min_shared_kmers=1, gap_model=gap_model,
                              chunk_size=8, align_backend="host")
        serial = build_homology_graph(sequences, base)
        with pool_alignment():
            parallel = build_homology_graph(
                sequences, dataclasses.replace(base, n_jobs=n_jobs,
                                               align_backend="auto"))
        if parallel.n_candidate_pairs:
            assert parallel.align_backend == "pool"
        assert_results_identical(serial, parallel)

    def test_family_workload_parallel_identical(self):
        ps = generate_protein_families(
            SequenceFamilyConfig(n_families=6, family_size_median=10.0),
            seed=5)
        base = HomologyConfig(chunk_size=64)
        serial = build_homology_graph(
            ps.sequences, dataclasses.replace(base, align_backend="host"))
        for jobs in (2, 4):
            with pool_alignment():
                parallel = build_homology_graph(
                    ps.sequences, dataclasses.replace(base, n_jobs=jobs))
            assert parallel.align_backend == "pool"
            assert_results_identical(serial, parallel)

    def test_streaming_mode_same_graph_no_scores(self):
        ps = generate_protein_families(
            SequenceFamilyConfig(n_families=5, family_size_median=9.0),
            seed=8)
        base = HomologyConfig(chunk_size=64)
        host = dataclasses.replace(base, align_backend="host")
        full = build_homology_graph(ps.sequences, host)
        for config, backend in ((host, "host"),
                                (dataclasses.replace(base, n_jobs=2), "pool")):
            with pool_alignment():
                streamed = build_homology_graph(ps.sequences, config,
                                                keep_scores=False)
            assert streamed.align_backend == backend
            assert np.array_equal(full.graph.indptr, streamed.graph.indptr)
            assert np.array_equal(full.graph.indices, streamed.graph.indices)
            assert streamed.n_candidate_pairs == full.n_candidate_pairs
            assert streamed.normalized_scores.size == 0
            assert streamed.pairs.shape == (0, 2)

    def test_n_jobs_validation(self):
        with pytest.raises(ValueError):
            HomologyConfig(n_jobs=-1)

    def test_shard_bounds_cover_exactly(self):
        for n_pairs in (1, 7, 100, 1024, 1025):
            for jobs in (1, 2, 4):
                bounds = _shard_bounds(n_pairs, 8, jobs)
                assert bounds[0][0] == 0
                assert bounds[-1][1] == n_pairs
                for (lo, hi), (lo2, _) in zip(bounds, bounds[1:]):
                    assert hi == lo2
                assert all(lo < hi for lo, hi in bounds)

    def test_shard_bounds_single_job_single_shard(self):
        # One worker gets one shard: no merge bookkeeping, no per-shard
        # dispatch overhead on the serial path.
        assert _shard_bounds(10_000, 8, 1) == [(0, 10_000)]
        assert _shard_bounds(10_000, 8, 0) == [(0, 10_000)]

    def test_shard_bounds_empty(self):
        assert _shard_bounds(0, 8, 1) == []
        assert _shard_bounds(0, 8, 4) == []


class TestSequenceArena:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        seqs = [rng.integers(0, 21, size=int(rng.integers(0, 40))).astype(np.uint8)
                for _ in range(17)]
        with SequenceArena.pack(seqs) as arena:
            attached = SequenceArena.attach(arena.name, len(seqs))
            try:
                assert attached.n_sequences == len(seqs)
                recovered = attached.sequences()
                assert all(np.array_equal(a, b)
                           for a, b in zip(seqs, recovered))
                # views, not copies
                assert all(r.base is not None for r in recovered if r.size)
            finally:
                attached.close()

    def test_empty_set(self):
        with SequenceArena.pack([]) as arena:
            assert arena.n_sequences == 0
            assert arena.sequences() == []

    def test_all_empty_sequences(self):
        seqs = [np.empty(0, dtype=np.uint8)] * 3
        with SequenceArena.pack(seqs) as arena:
            assert all(s.size == 0 for s in arena.sequences())


class TestLazySelfScores:
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        seqs = [rng.integers(0, 21, size=int(rng.integers(0, 50))).astype(np.uint8)
                for _ in range(25)]
        batch = batch_self_scores(seqs)
        scalar = np.array([self_score(s) for s in seqs], dtype=np.int64)
        assert np.array_equal(batch, scalar)

    def test_scores_unchanged_by_lazy_restriction(self):
        """Self-scores only enter through candidate-pair denominators, so
        restricting them to referenced sequences must leave every
        normalized score exactly as the eager full-set computation."""
        ps = generate_protein_families(
            SequenceFamilyConfig(n_families=6, family_size_median=10.0),
            seed=12)
        result = build_homology_graph(ps.sequences, HomologyConfig())
        selfs = np.array([self_score(s) for s in ps.sequences],
                         dtype=np.int64)
        # Recompute normalization the eager way and compare bit for bit.
        pairs = result.pairs
        denom = np.minimum(selfs[pairs[:, 0]], selfs[pairs[:, 1]])
        from repro.sequence.smith_waterman import batch_smith_waterman

        scores = batch_smith_waterman(
            [ps.sequences[i] for i in pairs[:, 0]],
            [ps.sequences[j] for j in pairs[:, 1]])
        eager = scores / np.maximum(denom, 1)
        assert np.array_equal(result.normalized_scores, eager)

    def test_timings_populated(self):
        ps = generate_protein_families(
            SequenceFamilyConfig(n_families=4, family_size_median=8.0),
            seed=2)
        result = build_homology_graph(ps.sequences, HomologyConfig())
        t = result.timings
        assert isinstance(t, HomologyTimings)
        assert t.total_s > 0
        d = t.as_dict()
        assert set(d) == {"seed_filter_s", "self_scores_s", "alignment_s",
                          "graph_build_s", "total_s"}
        assert d["total_s"] == pytest.approx(
            d["seed_filter_s"] + d["self_scores_s"] + d["alignment_s"]
            + d["graph_build_s"])
