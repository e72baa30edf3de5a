"""Cross-validation: serial reference vs. device path.

This is the reproduction's central correctness property — the paper's GPU
port must compute exactly what the serial algorithm computes.  Both passes
and the final clustering are compared bit-for-bit, across batching regimes,
kernels, trial chunkings, and pass schedules.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregate import StreamingAggregator, aggregate_pass
from repro.core.device_exec import device_shingle_pass
from repro.core.params import KERNELS, ShinglingParams
from repro.core.pipeline import GpClust, SerialPClust
from repro.core.report import partition_labels
from repro.core.serial import serial_partition_labels, serial_shingle_pass
from repro.device.device import SimulatedDevice
from repro.device.timingmodels import DeviceSpec
from repro.graph.csr import CSRGraph
from tests.conftest import SCHEDULES, random_blocky_graph, schedule

CAPACITY = 8 * 2**20


def fresh_device(capacity=CAPACITY):
    return SimulatedDevice(DeviceSpec(memory_capacity_bytes=capacity))


class TestPassEquivalence:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_pass1_matches_serial(self, blocky_graph, small_params, kernel):
        cfg = small_params.pass_config(1)
        ref = serial_shingle_pass(blocky_graph.indptr, blocky_graph.indices, cfg)
        got = device_shingle_pass(blocky_graph.indptr, blocky_graph.indices,
                                  cfg, fresh_device(), kernel=kernel)
        assert got == ref

    def test_pass2_matches_serial(self, blocky_graph, small_params):
        cfg1 = small_params.pass_config(1)
        cfg2 = small_params.pass_config(2)
        pass1 = serial_shingle_pass(blocky_graph.indptr, blocky_graph.indices, cfg1)
        indptr2, elems2 = pass1.next_pass_input()
        ref = serial_shingle_pass(indptr2, elems2, cfg2)
        got = device_shingle_pass(indptr2, elems2, cfg2, fresh_device())
        assert got == ref

    @pytest.mark.parametrize("max_elements", [7, 23, 64, 10_000])
    def test_batch_size_invariance(self, blocky_graph, small_params, max_elements):
        """Splitting lists across batches must not change the result."""
        cfg = small_params.pass_config(1)
        ref = serial_shingle_pass(blocky_graph.indptr, blocky_graph.indices, cfg)
        got = device_shingle_pass(blocky_graph.indptr, blocky_graph.indices,
                                  cfg, fresh_device(), max_elements=max_elements)
        assert got == ref

    @pytest.mark.parametrize("trial_chunk", [1, 3, 100])
    def test_trial_chunk_invariance(self, blocky_graph, small_params, trial_chunk):
        cfg = small_params.pass_config(1)
        ref = serial_shingle_pass(blocky_graph.indptr, blocky_graph.indices, cfg)
        got = device_shingle_pass(blocky_graph.indptr, blocky_graph.indices,
                                  cfg, fresh_device(), trial_chunk=trial_chunk)
        assert got == ref

    def test_trailing_isolated_vertices(self, small_params):
        """Regression: trailing empty adjacency lists once corrupted the
        segmented-min boundaries of the final non-empty segment."""
        g = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)], n_vertices=8)
        cfg = small_params.pass_config(1)
        ref = serial_shingle_pass(g.indptr, g.indices, cfg)
        got = device_shingle_pass(g.indptr, g.indices, cfg, fresh_device())
        assert got == ref

    def test_prefetch_invariance(self, blocky_graph, small_params):
        """Half the element budget (what ``prefetch`` ran) changes nothing."""
        cfg = small_params.pass_config(1)
        sync = device_shingle_pass(blocky_graph.indptr, blocky_graph.indices,
                                   cfg, fresh_device(), max_elements=50)
        half = device_shingle_pass(blocky_graph.indptr, blocky_graph.indices,
                                   cfg, fresh_device(), max_elements=25)
        assert sync == half

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_graphs_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        m = int(rng.integers(0, 80))
        edges = rng.integers(0, n, size=(m, 2))
        g = CSRGraph.from_edges(edges, n_vertices=n)
        params = ShinglingParams(c1=6, c2=4, seed=seed)
        cfg = params.pass_config(1)
        ref = serial_shingle_pass(g.indptr, g.indices, cfg)
        got = device_shingle_pass(g.indptr, g.indices, cfg, fresh_device(),
                                  max_elements=int(rng.integers(3, 50)))
        assert got == ref


def _schedule_pass(label: str, indptr, elements, cfg,
                   max_elements: int | None = None, **kwargs):
    """One device pass under the schedule ``label`` names (``SCHEDULES``)."""
    params, spec = schedule(label, ShinglingParams(),
                            DeviceSpec(memory_capacity_bytes=CAPACITY))
    if max_elements is not None and label == "prefetch":
        max_elements //= 2
    return device_shingle_pass(indptr, elements, cfg, SimulatedDevice(spec),
                               max_elements=max_elements,
                               streams=params.streams, **kwargs)


class TestExecModeEquivalence:
    """Every execution schedule must be bit-identical to the serial pass."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("mode", sorted(SCHEDULES))
    def test_modes_match_serial(self, blocky_graph, small_params, mode, kernel):
        cfg = small_params.pass_config(1)
        ref = serial_shingle_pass(blocky_graph.indptr, blocky_graph.indices, cfg)
        got = _schedule_pass(mode, blocky_graph.indptr, blocky_graph.indices,
                             cfg, kernel=kernel, trial_chunk=4)
        assert got == ref

    @pytest.mark.parametrize("max_elements", [7, 23, 10_000])
    @pytest.mark.parametrize("mode", sorted(SCHEDULES))
    def test_modes_match_serial_across_batch_sizes(self, blocky_graph,
                                                   small_params, mode,
                                                   max_elements):
        """Split-forcing batch sizes × schedules: still bit-identical."""
        cfg = small_params.pass_config(1)
        ref = serial_shingle_pass(blocky_graph.indptr, blocky_graph.indices, cfg)
        got = _schedule_pass(mode, blocky_graph.indptr, blocky_graph.indices,
                             cfg, trial_chunk=4, max_elements=max_elements)
        assert got == ref

    @pytest.mark.parametrize("mode", sorted(SCHEDULES))
    def test_modes_with_trailing_empty_segments(self, small_params, mode):
        g = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)], n_vertices=9)
        cfg = small_params.pass_config(1)
        ref = serial_shingle_pass(g.indptr, g.indices, cfg)
        got = _schedule_pass(mode, g.indptr, g.indices, cfg, trial_chunk=2)
        assert got == ref

    @pytest.mark.parametrize("streams", [1, 2, 5])
    def test_stream_count_invariance(self, blocky_graph, small_params, streams):
        cfg = small_params.pass_config(1)
        ref = serial_shingle_pass(blocky_graph.indptr, blocky_graph.indices, cfg)
        got = device_shingle_pass(
            blocky_graph.indptr, blocky_graph.indices, cfg, fresh_device(),
            trial_chunk=3, streams=streams)
        assert got == ref

    @pytest.mark.parametrize("streams", [1, 2, 5])
    def test_stream_count_invariance_multi_batch(self, blocky_graph,
                                                 small_params, streams):
        """Streams over several batches with split lists: still exact."""
        cfg = small_params.pass_config(1)
        ref = serial_shingle_pass(blocky_graph.indptr, blocky_graph.indices, cfg)
        got = device_shingle_pass(
            blocky_graph.indptr, blocky_graph.indices, cfg, fresh_device(),
            trial_chunk=3, max_elements=23 * streams, streams=streams)
        assert got == ref

    @pytest.mark.parametrize("streams", [1, 3])
    def test_streams_divide_the_element_budget(self, blocky_graph,
                                               small_params, streams):
        """``streams`` working sets share one device: the budget splits."""
        from repro.device.batching import plan_batches
        from repro.obs import observe, use_obs

        cfg = small_params.pass_config(1)
        lengths = np.diff(blocky_graph.indptr)
        compact_indptr = np.concatenate(
            [[0], np.cumsum(lengths[lengths >= cfg.s])])
        ctx = observe()
        with use_obs(ctx):
            device_shingle_pass(blocky_graph.indptr, blocky_graph.indices,
                                cfg, fresh_device(), max_elements=600,
                                streams=streams)
        (span,) = [r for r in ctx.tracer.records
                   if r.name == "exec.shingle_pass"]
        want = plan_batches(compact_indptr, 600 // streams).n_batches
        assert span.attrs["n_batches"] == want
        assert span.attrs["streams"] == streams

    def test_pipeline_exec_modes_identical(self, small_params):
        g = random_blocky_graph(seed=21)
        serial = SerialPClust(small_params).run(g)
        for mode in SCHEDULES:
            params, spec = schedule(mode, small_params)
            result = GpClust(params, spec).run(g)
            assert np.array_equal(result.labels, serial.labels), mode

    @pytest.mark.parametrize("streams", [1, 2, 4])
    def test_pipeline_stream_counts_identical(self, small_params, streams):
        """--streams N is bit-identical to the serial baseline for every N."""
        g = random_blocky_graph(seed=22)
        serial = SerialPClust(small_params).run(g)
        got = GpClust(small_params.with_overrides(streams=streams)).run(g)
        assert np.array_equal(got.labels, serial.labels)

    def test_scratch_pool_zero_alloc_steady_state(self, blocky_graph,
                                                  small_params):
        """After warm-up, repeated same-geometry rounds allocate nothing new.

        The scratch-pool counters are the observable contract of the
        zero-alloc hot path: every take() after round one must be a reuse.
        """
        device = fresh_device()
        cfg = small_params.pass_config(1)
        device_shingle_pass(blocky_graph.indptr, blocky_graph.indices, cfg,
                            device, trial_chunk=8)
        warm_allocs = device.scratch.n_allocations
        assert warm_allocs > 0  # the pool is actually in the hot path
        for _ in range(3):
            device_shingle_pass(blocky_graph.indptr, blocky_graph.indices,
                                cfg, device, trial_chunk=8)
        assert device.scratch.n_allocations == warm_allocs
        assert device.scratch.n_reuses > 0


class TestMultiBatchMatrix:
    """Adjacency lists split across >= 3 batches, every schedule x kernel."""

    MAX_ELEMENTS = 97  # forces many small batches with split lists

    def _reference_and_graph(self, small_params):
        g = random_blocky_graph(seed=31)
        cfg = small_params.pass_config(1)
        ref = serial_shingle_pass(g.indptr, g.indices, cfg)
        return g, cfg, ref

    def test_workload_actually_splits_across_three_batches(self, small_params):
        """Guard: the chosen budget really produces >= 3 batches with splits."""
        from repro.device.batching import plan_batches

        g, cfg, _ = self._reference_and_graph(small_params)
        lengths = np.diff(g.indptr)
        valid = lengths >= cfg.s
        compact_indptr = np.zeros(int(valid.sum()) + 1, dtype=np.int64)
        np.cumsum(lengths[valid], out=compact_indptr[1:])
        # multistream with 3 streams divides the budget by 3 — even then the
        # longest list must fit, so check the tightest budget the matrix uses
        plan = plan_batches(compact_indptr, self.MAX_ELEMENTS // 3)
        assert plan.n_batches >= 3
        assert any(batch.is_split.any() for batch in plan)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("mode", sorted(SCHEDULES))
    def test_three_batch_split_matches_serial(self, small_params, mode, kernel):
        g, cfg, ref = self._reference_and_graph(small_params)
        got = _schedule_pass(mode, g.indptr, g.indices, cfg, kernel=kernel,
                             trial_chunk=4, max_elements=self.MAX_ELEMENTS)
        assert got == ref

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_three_batch_full_pipeline_matches_serial(self, small_params, kernel):
        g = random_blocky_graph(seed=31)
        params = small_params.with_overrides(kernel=kernel)
        serial = SerialPClust(params).run(g)
        device = GpClust(params,
                         max_batch_elements=self.MAX_ELEMENTS).run(g)
        assert np.array_equal(serial.labels, device.labels)


def _aggregate_inputs(rng, c, n_rows, s):
    """Random (fps, top, lengths) occurrence arrays with repeated prints."""
    # Few distinct fingerprints so chunks share them (exercises the merge).
    fps = rng.integers(0, 6, size=(c, n_rows)).astype(np.uint64)
    ids = rng.integers(0, 50, size=(c, n_rows, s)).astype(np.uint64)
    hashes = rng.integers(0, 100, size=(c, n_rows, s)).astype(np.uint64)
    top = (hashes << np.uint64(32)) | ids
    top.sort(axis=2)
    lengths = rng.integers(s, s + 4, size=n_rows).astype(np.int64)
    return fps, top, lengths


class TestStreamingAggregation:
    @given(st.integers(0, 10_000), st.data())
    @settings(max_examples=30, deadline=None)
    def test_chunked_aggregation_matches_whole_array(self, seed, data):
        """Streaming merge over ANY contiguous trial partition is identical
        to one whole-array aggregate_pass."""
        rng = np.random.default_rng(seed)
        c = int(rng.integers(1, 12))
        n_rows = int(rng.integers(1, 10))
        s = int(rng.integers(1, 4))
        fps, top, lengths = _aggregate_inputs(rng, c, n_rows, s)

        whole = aggregate_pass(fps, top, lengths, s)

        cuts = data.draw(st.sets(st.integers(1, max(c - 1, 1)), max_size=c))
        bounds = [0] + sorted(b for b in cuts if b < c) + [c]
        agg = StreamingAggregator(s, n_rows)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            agg.add(lo, aggregate_pass(fps[lo:hi], top[lo:hi], lengths, s))
        assert agg.result() == whole

    def test_out_of_order_adds(self):
        rng = np.random.default_rng(7)
        fps, top, lengths = _aggregate_inputs(rng, 9, 6, 2)
        whole = aggregate_pass(fps, top, lengths, 2)
        agg = StreamingAggregator(2, 6)
        for lo, hi in [(6, 9), (0, 3), (3, 6)]:  # arrival order shuffled
            agg.add(lo, aggregate_pass(fps[lo:hi], top[lo:hi], lengths, 2))
        assert agg.result() == whole

    @given(st.integers(0, 10_000), st.data())
    @settings(max_examples=30, deadline=None)
    def test_any_completion_order_identical(self, seed, data):
        """The property concurrent streams rest on: chunks may complete
        in ANY order (streams race), and the merged result must still equal
        the whole-array aggregate — for every partition x permutation."""
        rng = np.random.default_rng(seed)
        c = int(rng.integers(1, 12))
        n_rows = int(rng.integers(1, 10))
        s = int(rng.integers(1, 4))
        fps, top, lengths = _aggregate_inputs(rng, c, n_rows, s)

        whole = aggregate_pass(fps, top, lengths, s)

        cuts = data.draw(st.sets(st.integers(1, max(c - 1, 1)), max_size=c))
        bounds = [0] + sorted(b for b in cuts if b < c) + [c]
        chunks = list(zip(bounds[:-1], bounds[1:]))
        order = data.draw(st.permutations(range(len(chunks))))
        agg = StreamingAggregator(s, n_rows)
        for idx in order:
            lo, hi = chunks[idx]
            agg.add(lo, aggregate_pass(fps[lo:hi], top[lo:hi], lengths, s))
        assert agg.result() == whole

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("collide", [True, False],
                             ids=["collisions", "disjoint"])
    def test_merge_matches_whole_array(self, seed, collide):
        """Merged chunk partials equal the whole-array aggregate, whether
        fingerprints repeat across parts (the group-by fallback) or every
        part is disjoint (the gather)."""
        rng = np.random.default_rng(seed)
        c, n_rows, s = 9, 6, 2
        fps, top, lengths = _aggregate_inputs(rng, c, n_rows, s)
        if not collide:
            # Per-trial offsets play the role of the per-trial salts.
            fps += (np.arange(c, dtype=np.uint64) * np.uint64(100))[:, None]
        whole = aggregate_pass(fps, top, lengths, s)

        host_agg = StreamingAggregator(s, n_rows)
        parts = []
        for lo, hi in [(0, 3), (3, 5), (5, 9)]:
            part = aggregate_pass(fps[lo:hi], top[lo:hi], lengths, s)
            parts.append(part.fingerprints)
            host_agg.add(lo, part)
        shared = np.intersect1d(parts[0], parts[1]).size
        assert (shared > 0) == collide
        assert host_agg.result() == whole


class TestPipelineEquivalence:
    def test_labels_identical(self, small_params):
        g = random_blocky_graph(seed=8)
        serial = SerialPClust(small_params).run(g)
        device = GpClust(small_params,
                         DeviceSpec(memory_capacity_bytes=2**20)).run(g)
        assert np.array_equal(serial.labels, device.labels)

    def test_union_backends_identical(self, small_params):
        """On device-built passes, the vectorized union, the serial
        baseline's scalar union-find and GpClust's direct pass II fold
        give the same partition."""
        g = random_blocky_graph(seed=12)
        device = SimulatedDevice()
        pass1 = device_shingle_pass(g.indptr, g.indices,
                                    small_params.pass_config(1), device)
        pass2 = device_shingle_pass(*pass1.next_pass_input(),
                                    small_params.pass_config(2), device)
        vectorized = partition_labels(pass1, pass2, g.n_vertices)
        scalar = serial_partition_labels(pass1, pass2, g.n_vertices)
        assert np.array_equal(vectorized, scalar)
        assert np.array_equal(GpClust(small_params).run(g).labels, scalar)
        assert 1 < np.unique(scalar).size < g.n_vertices

    def test_kernels_identical(self, small_params):
        g = random_blocky_graph(seed=13)
        a = GpClust(small_params.with_overrides(kernel="fused")).run(g)
        b = GpClust(small_params.with_overrides(kernel="sort")).run(g)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("overrides,max_batch", [
        ({}, None), ({"streams": 2}, None), ({}, 64), ({"streams": 2}, 64),
        ({"report_mode": "overlapping"}, None),
        ({"report_mode": "overlapping", "streams": 2}, 64),
    ])
    def test_kernel_matches_serial(self, small_params, kernel, overrides,
                                   max_batch):
        """Single- and multi-batch, 1 or 2 streams, partition or
        overlapping mode: every kernel equals the serial oracle."""
        g = random_blocky_graph(seed=17)
        params = small_params.with_overrides(kernel=kernel, **overrides)
        serial = SerialPClust(params).run(g)
        device = GpClust(params, max_batch_elements=max_batch).run(g)
        if params.report_mode == "partition":
            assert np.array_equal(serial.labels, device.labels)
        else:
            assert len(serial.overlapping) == len(device.overlapping)
            assert all(np.array_equal(s, d) for s, d in
                       zip(serial.overlapping, device.overlapping))

    def test_determinism_across_runs(self, small_params):
        g = random_blocky_graph(seed=15)
        a = GpClust(small_params).run(g)
        b = GpClust(small_params).run(g)
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_clustering_randomness(self, small_params):
        g = random_blocky_graph(seed=16)
        a = GpClust(small_params).run(g)
        b = GpClust(small_params.with_overrides(seed=small_params.seed + 1)).run(g)
        # Different hash families -> (almost surely) different shingle sets;
        # the cluster *labels* may or may not coincide, but the shingle
        # counts should differ.
        assert (a.n_first_level_shingles != b.n_first_level_shingles
                or not np.array_equal(a.labels, b.labels))
