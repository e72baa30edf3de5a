"""Tests for the SimulatedDevice facade (transfers + shingle chunks)."""

import numpy as np
import pytest

from repro.core.device_exec import trial_chunks
from repro.core.params import ShinglingParams
from repro.core.serial import serial_top_s
from repro.device.device import SimulatedDevice
from repro.device.kernels import (SENTINEL, affine_hash, fold_fingerprints,
                                  pack_pairs, segmented_select_top_s,
                                  unpack_pairs)
from repro.device.memory import DeviceMemoryError
from repro.device.timingmodels import DeviceSpec
from repro.util.mixhash import fold_fingerprint
from repro.util.timer import BUCKET_C2G, BUCKET_G2C, BUCKET_GPU


@pytest.fixture
def device():
    return SimulatedDevice(DeviceSpec(memory_capacity_bytes=16 * 2**20))


class TestTransfers:
    def test_upload_download_round_trip(self, device):
        host = np.arange(100, dtype=np.int64)
        buf = device.upload(host)
        out = device.download(buf)
        assert np.array_equal(out, host)
        device.free(buf)
        assert device.memory.used_bytes == 0

    def test_transfer_buckets_accumulate(self, device):
        buf = device.upload(np.zeros(1000))
        device.download(buf)
        assert device.breakdown.get(BUCKET_C2G) > 0
        assert device.breakdown.get(BUCKET_G2C) > 0
        assert device.breakdown.get_modeled(BUCKET_C2G) > 0
        assert device.breakdown.get_modeled(BUCKET_G2C) > 0

    def test_upload_beyond_capacity_raises(self):
        tiny = SimulatedDevice(DeviceSpec(memory_capacity_bytes=64))
        with pytest.raises(DeviceMemoryError):
            tiny.upload(np.zeros(1000))


def _csr(lists):
    indptr = np.zeros(len(lists) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(x) for x in lists])
    flat = (np.concatenate([np.asarray(x, dtype=np.int64) for x in lists])
            if lists else np.empty(0, dtype=np.int64))
    return flat, indptr


def _packed_reference(cfg, lists, s):
    """The unfused host sequence: packed (hash, id) pairs, s-round select."""
    flat, indptr = _csr(lists)
    packed = pack_pairs(affine_hash(flat, cfg.a_array, cfg.b_array,
                                    cfg.prime), flat)
    top = segmented_select_top_s(packed, indptr, s)
    return fold_fingerprints(unpack_pairs(top)[1], cfg.salts), top


class TestShingleBatch:
    """``shingle_chunk`` rounds covering every trial of one uploaded batch."""

    def _run(self, device, lists, s=2, c=6, kernel="fused", trial_chunk=3):
        params = ShinglingParams(s1=s, c1=c, s2=s, c2=c, seed=4)
        cfg = params.pass_config(1)
        flat, indptr = _csr(lists)
        d_elem = device.upload(flat)
        d_ind = device.upload(indptr)
        fps = np.empty((c, len(lists)), dtype=np.uint64)
        top = np.empty((c, len(lists), s), dtype=np.uint64)
        a, b = cfg.a_array, cfg.b_array
        for lo, hi in trial_chunks(c, trial_chunk):
            device.shingle_chunk(
                d_elem, d_ind, a=a[lo:hi], b=b[lo:hi], prime=cfg.prime, s=s,
                salts=cfg.salts[lo:hi], kernel=kernel,
                out_fps=fps[lo:hi], out_top=top[lo:hi])
        device.free(d_elem, d_ind)
        return cfg, fps, top

    def test_matches_serial_reference(self, device):
        lists = [[3, 9, 14, 2], [5, 6], [8], [1, 2, 3, 4, 5, 6, 7]]
        cfg, fps, top = self._run(device, lists)
        for j, pair in enumerate(cfg.hash_pairs):
            for seg, lst in enumerate(lists):
                if len(lst) < 2:
                    continue
                ref = serial_top_s(lst, pair.a, pair.b, cfg.prime, 2)
                ids = [v for _, v in ref]
                assert fps[j, seg] == fold_fingerprint(ids, int(cfg.salts[j]))
                _, got_ids = unpack_pairs(top[j, seg])
                assert list(got_ids.astype(int)) == ids

    def test_sort_and_select_kernels_identical(self, device):
        # The sort engine on fused keys equals the s-round select on
        # packed pairs, sentinel padding included.
        lists = [[10, 20, 30], [7, 8, 9, 11], [1]]
        cfg, fps, top = self._run(device, lists, s=3, kernel="sort")
        fps_ref, top_ref = _packed_reference(cfg, lists, 3)
        assert np.array_equal(fps, fps_ref)
        assert np.array_equal(top, top_ref)

    def test_short_segments_sentinel(self, device):
        _, _, top = self._run(device, [[4]], s=3)
        assert top[0, 0, 0] != SENTINEL
        assert top[0, 0, 1] == SENTINEL

    def test_trial_chunking_invariance(self, device):
        lists = [[3, 1, 4, 1 + 4, 9], [2, 6, 5]]
        _, fps_a, top_a = self._run(device, lists, c=10, trial_chunk=1)
        _, fps_b, top_b = self._run(device, lists, c=10, trial_chunk=10)
        assert np.array_equal(fps_a, fps_b)
        assert np.array_equal(top_a, top_b)

    def test_gpu_bucket_accumulates(self, device):
        self._run(device, [[1, 2, 3]])
        assert device.breakdown.get(BUCKET_GPU) > 0
        assert device.breakdown.get_modeled(BUCKET_GPU) > 0

    def test_device_memory_released_after_batch(self, device):
        before = device.memory.used_bytes
        self._run(device, [[1, 2, 3], [4, 5]])
        assert device.memory.used_bytes == before

    def test_bad_kernel_rejected(self, device):
        with pytest.raises(ValueError):
            self._run(device, [[1, 2]], kernel="warp")

    def test_mismatched_params_rejected(self, device):
        d_elem = device.upload(np.array([1, 2], dtype=np.int64))
        d_ind = device.upload(np.array([0, 2], dtype=np.int64))
        with pytest.raises(ValueError):
            device.shingle_chunk(d_elem, d_ind,
                                 a=np.array([1], dtype=np.uint64),
                                 b=np.array([1, 2], dtype=np.uint64),
                                 prime=101, s=2,
                                 salts=np.array([0], dtype=np.uint64))

    def test_set_breakdown_redirects(self, device):
        from repro.util.timer import TimeBreakdown
        fresh = TimeBreakdown()
        device.set_breakdown(fresh)
        device.upload(np.zeros(10))
        assert fresh.get(BUCKET_C2G) > 0


class TestFusedKernelFacade:
    def test_fused_identical_to_select(self, device):
        runner = TestShingleBatch()
        lists = [[10, 20, 30], [7, 8, 9, 11], [1], [2, 4, 6, 8, 10]]
        cfg, fps, top = runner._run(device, lists, kernel="fused")
        fps_ref, top_ref = _packed_reference(cfg, lists, 2)
        assert np.array_equal(fps, fps_ref)
        assert np.array_equal(top, top_ref)

    def test_fused_short_segments_sentinel(self, device):
        runner = TestShingleBatch()
        _, _, top = runner._run(device, [[4]], s=3, kernel="fused")
        assert top[0, 0, 0] != SENTINEL
        assert top[0, 0, 1] == SENTINEL

    def test_kernel_stats_recorded(self, device):
        runner = TestShingleBatch()
        runner._run(device, [[1, 2, 3], [4, 5, 6]], kernel="fused")
        prof = device.profile()
        assert "fused_transform" in prof["kernels"]
        assert prof["kernels"]["fused_transform"]["launches"] > 0
        assert prof["transfers"]["bytes_to_device"] > 0
        assert "scratch_pool" in prof

    def test_fused_charges_one_transform(self):
        """Every kernel bills ONE fused transform launch per chunk; only
        the top-s engine's class differs."""
        spec = DeviceSpec(memory_capacity_bytes=16 * 2**20)
        runner = TestShingleBatch()
        lists = [[1, 2, 3, 4], [5, 6, 7]]
        dev_sort, dev_fused = SimulatedDevice(spec), SimulatedDevice(spec)
        runner._run(dev_sort, lists, kernel="sort")
        runner._run(dev_fused, lists, kernel="fused")
        sort = dev_sort.profile()["kernels"]
        fused = dev_fused.profile()["kernels"]
        assert sort["fused_transform"] == fused["fused_transform"]
        assert fused["fused_transform"]["launches"] == 2  # c=6, chunks of 3
        assert set(sort) - set(fused) == {"top_s_sort"}
        assert set(fused) - set(sort) == {"top_s_select"}


class TestShingleChunkReduce:
    def _run_reduce(self, device, lists, s=2, c=6):
        from repro.device.kernels import segment_element_ids

        params = ShinglingParams(s1=s, c1=c, s2=s, c2=c, seed=4)
        cfg = params.pass_config(1)
        indptr = np.zeros(len(lists) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(x) for x in lists])
        flat = np.concatenate([np.asarray(x, dtype=np.int64) for x in lists])
        d_elem = device.upload(flat)
        d_ind = device.upload(indptr)
        d_gen = device.upload(np.arange(len(lists), dtype=np.uint32))
        out = device.shingle_chunk_reduce(
            d_elem, d_ind, d_gen, a=cfg.a_array, b=cfg.b_array,
            prime=cfg.prime, s=s, salts=cfg.salts,
            seg_ids=segment_element_ids(indptr),
            n_values=int(flat.max()) + 1)
        device.free(d_elem, d_ind, d_gen)
        return cfg, out

    def test_matches_dense_aggregation(self, device):
        from repro.core.aggregate import aggregate_pass

        # all lists valid (length >= s): the reduce path's precondition
        lists = [[3, 9, 14, 2], [5, 6], [1, 2, 3, 4, 5, 6, 7], [9, 14]]
        other = SimulatedDevice(DeviceSpec(memory_capacity_bytes=16 * 2**20))
        runner = TestShingleBatch()
        _, fps_dense, top_dense = runner._run(other, lists, trial_chunk=6)
        ref = aggregate_pass(fps_dense, top_dense,
                             np.array([len(x) for x in lists]), 2)
        cfg, (fps, members, counts, gens, _) = self._run_reduce(device, lists)
        assert np.array_equal(fps, ref.fingerprints)
        assert np.array_equal(members.astype(np.int64), ref.members)
        assert np.array_equal(gens.astype(np.int64), ref.gen_graph.indices)
        assert np.array_equal(np.cumsum(counts), ref.gen_graph.indptr[1:])

    def test_compacted_transfer_is_smaller(self):
        """The reduce path must ship fewer g2c bytes than the dense path."""
        spec = DeviceSpec(memory_capacity_bytes=16 * 2**20)
        lists = [list(range(i, i + 5)) for i in range(30)]
        dense_dev, reduce_dev = SimulatedDevice(spec), SimulatedDevice(spec)
        runner = TestShingleBatch()
        runner._run(dense_dev, lists, trial_chunk=6)
        self._run_reduce(reduce_dev, lists)
        assert (reduce_dev.memory.bytes_to_host
                < dense_dev.memory.bytes_to_host)

    def test_reduce_memory_released(self, device):
        before = device.memory.used_bytes
        self._run_reduce(device, [[1, 2, 3], [4, 5, 6]])
        assert device.memory.used_bytes == before
