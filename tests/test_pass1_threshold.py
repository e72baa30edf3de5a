"""Pass I keeps only the shingles a later stage reads.

``device_shingle_pass(..., min_generators=m)`` must equal the serial pass
filtered to the shingles with at least ``m`` generators, with
``n_distinct`` still counting every distinct shingle, on every schedule
and batching; ``GpClust`` (which runs pass I with ``m = s2``, or 2 for the
one-shingle grouping) must still equal ``SerialPClust``.  A fingerprint
shared by two runs sends the pass down the full path, which is exact.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from repro.core.device_exec import device_shingle_pass
from repro.core.params import (GROUPING_ONE_SHINGLE, KERNELS,
                               REPORT_OVERLAPPING, REPORT_PARTITION,
                               ShinglingParams)
from repro.core.pipeline import GpClust, SerialPClust, pass1_min_generators
from repro.core.serial import serial_shingle_pass
from repro.device.device import SimulatedDevice
from repro.device.kernels import chunk_reduce
from repro.obs import observe, use_obs
from repro.util.mixhash import fold_fingerprint, mix64_array
from tests.conftest import random_blocky_graph

FALLBACKS = "shingle.fp_collision_fallbacks"


def _equal_salts(params: ShinglingParams):
    """``params.pass_config`` with one salt for every trial of a pass, so
    any tuple two trials both pick shares its fingerprint."""
    real = ShinglingParams.pass_config

    def pass_config(self, pass_id):
        cfg = real(self, pass_id)
        return replace(cfg, salts=np.full(cfg.c, cfg.salts[0]))
    return pass_config


def _run_pass(graph, cfg, m, **kw):
    """The device pass with threshold ``m`` and its fallback count."""
    ctx = observe()
    with use_obs(ctx):
        got = device_shingle_pass(graph.indptr, graph.indices, cfg,
                                  SimulatedDevice(), min_generators=m, **kw)
    return got, ctx.metrics.snapshot()["counters"].get(FALLBACKS, 0)


class TestPassThreshold:
    @given(seed=st.integers(0, 10_000), m=st.sampled_from([1, 2, 3]),
           s=st.integers(1, 3), kernel=st.sampled_from(KERNELS),
           streams=st.sampled_from([1, 2]),
           max_elements=st.sampled_from([None, 40]))
    @settings(max_examples=40, deadline=None)
    def test_equals_filtered_serial(self, seed, m, s, kernel, streams,
                                    max_elements):
        graph = random_blocky_graph(seed=seed, n=60, block=10, n_noise=50)
        cfg = ShinglingParams(s1=s, c1=7, seed=seed).pass_config(1)
        full = serial_shingle_pass(graph.indptr, graph.indices, cfg)
        got, fallbacks = _run_pass(graph, cfg, m, kernel=kernel,
                                   trial_chunk=3, streams=streams,
                                   max_elements=max_elements)
        assert got == full.with_min_generators(m)
        assert got.n_distinct == full.n_shingles
        assert np.all(got.gen_graph.degrees() >= m)
        assert fallbacks == 0

    @pytest.mark.parametrize("m", [2, 3])
    def test_equal_salts_take_the_full_path(self, monkeypatch, m):
        graph = random_blocky_graph(seed=4)
        params = ShinglingParams(c1=12, seed=2, trial_chunk=4)
        monkeypatch.setattr(ShinglingParams, "pass_config",
                            _equal_salts(params))
        cfg = params.pass_config(1)
        full = serial_shingle_pass(graph.indptr, graph.indices, cfg)
        got, fallbacks = _run_pass(graph, cfg, m, trial_chunk=4)
        assert fallbacks == 1
        assert got == full.with_min_generators(m)
        assert got.n_distinct == full.n_shingles

    def test_equal_salts_labels_match_serial(self, monkeypatch):
        graph = random_blocky_graph(seed=5)
        params = ShinglingParams(c1=12, c2=6, seed=3, trial_chunk=4)
        monkeypatch.setattr(ShinglingParams, "pass_config",
                            _equal_salts(params))
        ctx = observe()
        with use_obs(ctx):
            got = GpClust(params).run(graph)
        want = SerialPClust(params).run(graph)
        assert ctx.metrics.snapshot()["counters"][FALLBACKS] == 1
        assert np.array_equal(got.labels, want.labels)
        assert got.n_first_level_shingles == want.n_first_level_shingles

    def test_2m_graph_keeps_the_fast_path(self):
        from repro.pipeline.workloads import (make_runtime_workload,
                                              workload_params)

        graph = make_runtime_workload("2m", "small").graph
        params = workload_params("small")
        ctx = observe()
        with use_obs(ctx):
            result = GpClust(params).run(graph)
        counters = ctx.metrics.snapshot()["counters"]
        assert counters.get(FALLBACKS, 0) == 0
        assert counters["shingle.pass1_kept"] < counters["shingle.distinct_fps"]
        assert result.n_first_level_shingles == counters["shingle.distinct_fps"]


class TestPipelineEqualsSerial:
    @pytest.mark.parametrize("s2", [1, 2, 3])
    @pytest.mark.parametrize("mode", [
        (REPORT_PARTITION, "two_level"), (REPORT_OVERLAPPING, "two_level"),
        (REPORT_PARTITION, GROUPING_ONE_SHINGLE)],
        ids=["partition", "overlapping", "one_shingle"])
    def test_every_mode(self, s2, mode):
        report_mode, grouping = mode
        graph = random_blocky_graph(seed=s2)
        params = ShinglingParams(c1=10, c2=6, s2=s2, seed=s2, trial_chunk=4,
                                 report_mode=report_mode, grouping=grouping)
        ctx = observe()
        with use_obs(ctx):
            got = GpClust(params).run(graph)
        want = SerialPClust(params).run(graph)
        if report_mode == REPORT_PARTITION:
            assert np.array_equal(got.labels, want.labels)
        else:
            assert len(got.overlapping) == len(want.overlapping)
            for a, b in zip(got.overlapping, want.overlapping):
                assert np.array_equal(a, b)
        assert got.n_first_level_shingles == want.n_first_level_shingles
        pass1 = serial_shingle_pass(graph.indptr, graph.indices,
                                    params.pass_config(1))
        assert ctx.metrics.snapshot()["counters"]["shingle.pass1_kept"] == (
            pass1.with_min_generators(pass1_min_generators(params)).n_shingles)


class TestFold:
    @given(seed=st.integers(0, 2**32 - 1), s=st.integers(1, 3),
           m=st.sampled_from([1, 2]), use_table=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_chunk_reduce_fps_equal_scalar_fold(self, seed, s, m, use_table):
        """The reduce's fold (a mixed-id table, salts mixed once, the last
        mix only for kept runs) is :func:`fold_fingerprint`, and its run
        keys collide exactly when fingerprints do."""
        rng = np.random.default_rng(seed)
        t, n, n_values = 3, 40, 12
        top = np.stack([np.stack([rng.choice(n_values, s, replace=False)
                                  for _ in range(n)]) for _ in range(t)]
                       ).astype(np.uint64)
        salts = rng.integers(0, 1 << 63, t).astype(np.uint64)
        table = (mix64_array(np.arange(n_values, dtype=np.uint64))
                 if use_table else None)
        fps, members, counts, _, run_keys = chunk_reduce(
            top, salts, np.arange(n, dtype=np.uint32), n_values,
            min_generators=m, id_mix=table)
        tuples = {(j, tuple(row)) for j in range(t) for row in top[j].tolist()}
        want = {fold_fingerprint(row, int(salts[j])) for j, row in tuples}
        assert np.unique(run_keys).size == run_keys.size == len(want)
        assert set(fps.tolist()) <= want
        for fp, row in zip(fps.tolist(), members.tolist()):
            assert any(fold_fingerprint(row, int(x)) == fp for x in salts)
        assert np.all(counts >= m)


class TestMinhashTracksJaccard:
    """Shingle agreement estimates Jaccard similarity (Broder's min-wise
    property, the premise of Section III-B): with ``s = 1``, two sets
    share a trial's shingle iff they share its minimum, so over ``c``
    trials the agreements of sets with Jaccard ``J`` fall in the
    ``Binomial(c, J)`` band."""

    C = 200
    #: Two-sided miss probability of the band per example.
    ALPHA = 1e-6

    @given(seed=st.integers(0, 2**32 - 1), inter=st.integers(0, 40),
           only_a=st.integers(0, 40), only_b=st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_agreement_in_binomial_band(self, seed, inter, only_a, only_b):
        if inter + only_a == 0 or inter + only_b == 0:
            return
        rng = np.random.default_rng(seed)
        ids = rng.choice(5000, inter + only_a + only_b, replace=False)
        a = np.sort(ids[:inter + only_a])
        b = np.sort(np.concatenate([ids[:inter], ids[inter + only_a:]]))
        jaccard = inter / (inter + only_a + only_b)
        indptr = np.array([0, a.size, a.size + b.size])
        cfg = ShinglingParams(s1=1, c1=self.C, seed=seed).pass_config(1)
        # Salted per trial, a shingle with both sets as generators is one
        # trial in which they agree; threshold 2 keeps only those.
        got = device_shingle_pass(indptr, np.concatenate([a, b]), cfg,
                                  SimulatedDevice(), min_generators=2)
        agree = got.n_shingles
        lo, hi = binom.interval(1 - self.ALPHA, self.C, jaccard)
        assert lo <= agree <= hi, (agree, self.C * jaccard)
