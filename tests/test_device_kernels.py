"""Tests for the device kernels.

The two top-s engines (full segmented sort vs. s-round segmented-min
selection) must be bit-identical; both must agree with a plain per-segment
reference computed with sorted().
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.kernels import (
    SENTINEL,
    SENTINEL32,
    affine_hash,
    chunk_reduce,
    count_kernel_elements,
    fold_fingerprints,
    fused_hash,
    pack_pairs,
    recover_top_ids,
    reduce_keys_fit,
    segmented_select_top_s,
    segmented_sort_top_s,
    unpack_pairs,
)
from repro.util.mixhash import fold_fingerprint

PRIME = 2_147_483_659


def reference_top_s(packed_row, indptr, s):
    """Per-segment sorted()-based reference."""
    n_seg = len(indptr) - 1
    out = np.full((n_seg, s), SENTINEL, dtype=np.uint64)
    for i in range(n_seg):
        seg = sorted(packed_row[indptr[i]:indptr[i + 1]].tolist())
        for r, v in enumerate(seg[:s]):
            out[i, r] = v
    return out


def random_csr(rng, n_seg=12, max_len=9):
    lengths = rng.integers(0, max_len, size=n_seg)
    indptr = np.zeros(n_seg + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(lengths)
    nnz = int(indptr[-1])
    # unique values per segment (adjacency lists are duplicate-free)
    values = np.concatenate([
        rng.choice(1000, size=l, replace=False) for l in lengths
    ]) if nnz else np.empty(0, dtype=np.int64)
    return indptr, values.astype(np.uint64)


class TestAffineHash:
    def test_matches_formula(self):
        values = np.arange(20, dtype=np.uint64)
        a = np.array([3, 7], dtype=np.uint64)
        b = np.array([1, 2], dtype=np.uint64)
        out = affine_hash(values, a, b, 101)
        expected = np.stack([(3 * values + 1) % 101, (7 * values + 2) % 101])
        assert np.array_equal(out, expected)

    def test_prime_bound_enforced(self):
        with pytest.raises(ValueError):
            affine_hash(np.array([1], dtype=np.uint64),
                        np.array([1], dtype=np.uint64),
                        np.array([0], dtype=np.uint64), 1 << 62)

    def test_no_overflow_near_prime(self):
        p = PRIME
        values = np.array([p - 1], dtype=np.uint64)
        a = np.array([p - 1], dtype=np.uint64)
        b = np.array([p - 1], dtype=np.uint64)
        out = int(affine_hash(values, a, b, p)[0, 0])
        assert out == ((p - 1) * (p - 1) + (p - 1)) % p


class TestPackUnpack:
    def test_round_trip(self):
        hashed = np.array([[0, 5, 2**31 - 1]], dtype=np.uint64)
        ids = np.array([7, 0, 2**32 - 1], dtype=np.uint64)
        packed = pack_pairs(hashed, ids)
        h, i = unpack_pairs(packed)
        assert np.array_equal(h, hashed)
        assert np.array_equal(i, np.broadcast_to(ids, h.shape))

    def test_order_by_hash_then_id(self):
        packed = pack_pairs(np.array([1, 1, 0], dtype=np.uint64),
                            np.array([5, 3, 9], dtype=np.uint64))
        order = np.argsort(packed)
        assert list(order) == [2, 1, 0]

    def test_large_id_rejected(self):
        with pytest.raises(ValueError):
            pack_pairs(np.array([0], dtype=np.uint64),
                       np.array([1 << 32], dtype=np.uint64))


class TestTopS:
    @pytest.mark.parametrize("s", [1, 2, 3, 5])
    def test_select_matches_reference(self, s, rng):
        for trial in range(5):
            indptr, values = random_csr(np.random.default_rng(trial))
            hashed = affine_hash(values, np.array([12345], dtype=np.uint64),
                                 np.array([67], dtype=np.uint64), PRIME)
            packed = pack_pairs(hashed, values)
            out = segmented_select_top_s(packed, indptr, s)
            ref = reference_top_s(packed[0], indptr, s)
            assert np.array_equal(out[0], ref)

    @pytest.mark.parametrize("s", [1, 2, 4])
    def test_sort_matches_select(self, s):
        """Packed uint64 pairs and fused uint32 keys alike, with segments
        shorter than ``s``: the sort keeps the key dtype and pads with its
        all-ones sentinel, exactly like the select."""
        rng = np.random.default_rng(99)
        indptr, values = random_csr(rng, n_seg=20, max_len=6)
        assert (np.diff(indptr) < max(s, 2)).any()
        a = rng.integers(1, PRIME, size=6).astype(np.uint64)
        b = rng.integers(0, PRIME, size=6).astype(np.uint64)
        for keys in (pack_pairs(affine_hash(values, a, b, PRIME), values),
                     fused_hash(values, a, b, PRIME)):
            got = segmented_sort_top_s(keys, indptr, s)
            assert got.dtype == keys.dtype
            assert np.array_equal(got, segmented_select_top_s(keys, indptr, s))

    def test_short_segments_padded_with_sentinel(self):
        indptr = np.array([0, 1, 1, 3])
        packed = pack_pairs(np.array([[5, 1, 2]], dtype=np.uint64),
                            np.array([10, 11, 12], dtype=np.uint64))
        out = segmented_select_top_s(packed, indptr, 2)
        assert out[0, 0, 1] == SENTINEL          # segment of length 1
        assert np.all(out[0, 1] == SENTINEL)     # empty segment
        assert out[0, 2, 0] < out[0, 2, 1] != SENTINEL

    def test_select_does_not_mutate_input(self):
        indptr = np.array([0, 3])
        packed = pack_pairs(np.array([[3, 1, 2]], dtype=np.uint64),
                            np.array([0, 1, 2], dtype=np.uint64))
        before = packed.copy()
        segmented_select_top_s(packed, indptr, 2)
        assert np.array_equal(packed, before)

    def test_empty_input(self):
        out = segmented_select_top_s(np.zeros((2, 0), dtype=np.uint64),
                                     np.array([0, 0]), 2)
        assert out.shape == (2, 1, 2)
        assert np.all(out == SENTINEL)

    def test_invalid_indptr_rejected(self):
        packed = np.zeros((1, 3), dtype=np.uint64)
        with pytest.raises(ValueError):
            segmented_select_top_s(packed, np.array([0, 2]), 2)

    @given(st.integers(0, 1000), st.integers(1, 4))
    @settings(max_examples=60)
    def test_select_sort_agree_property(self, seed, s):
        rng = np.random.default_rng(seed)
        indptr, values = random_csr(rng, n_seg=8, max_len=7)
        a = rng.integers(1, PRIME, size=3).astype(np.uint64)
        b = rng.integers(0, PRIME, size=3).astype(np.uint64)
        packed = pack_pairs(affine_hash(values, a, b, PRIME), values)
        assert np.array_equal(segmented_select_top_s(packed, indptr, s),
                              segmented_sort_top_s(packed, indptr, s))


class TestFoldFingerprints:
    def test_matches_scalar(self):
        ids = np.array([[[3, 9], [1, 4]]], dtype=np.uint64)
        salts = np.array([17], dtype=np.uint64)
        out = fold_fingerprints(ids, salts)
        assert out[0, 0] == fold_fingerprint([3, 9], 17)
        assert out[0, 1] == fold_fingerprint([1, 4], 17)


class TestKernelElementCounts:
    def test_counts(self):
        assert count_kernel_elements("transform", 4, 100, 10, 2) == 400
        assert count_kernel_elements("select", 4, 100, 10, 2) == 800
        assert count_kernel_elements("reduce", 4, 100, 10, 2) == 80

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            count_kernel_elements("scan", 1, 1, 1, 1)


class TestFusedHash:
    def _reference_keys(self, values, a, b):
        return affine_hash(values, a, b, PRIME).astype(np.uint32)

    @pytest.mark.parametrize("n_values", [None, 1000, 10_000])
    def test_matches_affine_hash(self, n_values):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 1000, size=50).astype(np.int64)
        a = rng.integers(1, PRIME, size=4).astype(np.uint64)
        b = rng.integers(0, PRIME, size=4).astype(np.uint64)
        got = fused_hash(values, a, b, PRIME, n_values=n_values)
        assert got.dtype == np.uint32
        assert np.array_equal(got, self._reference_keys(values, a, b))

    def test_table_and_direct_paths_identical(self):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 30, size=200).astype(np.int64)
        a = rng.integers(1, PRIME, size=3).astype(np.uint64)
        b = rng.integers(0, PRIME, size=3).astype(np.uint64)
        table = fused_hash(values, a, b, PRIME, n_values=30)      # gather
        direct = fused_hash(values, a, b, PRIME, n_values=10**9)  # too big
        assert np.array_equal(table, direct)

    def test_prime_bound_enforced(self):
        with pytest.raises(ValueError):
            fused_hash(np.array([1], dtype=np.int64),
                       np.array([1], dtype=np.uint64),
                       np.array([0], dtype=np.uint64), 1 << 62)

    def test_ordering_equals_packed_pair_ordering(self):
        """Injectivity: within distinct ids, hash order == packed-pair order."""
        rng = np.random.default_rng(2)
        values = rng.choice(100_000, size=500, replace=False).astype(np.int64)
        a = rng.integers(1, PRIME, size=5).astype(np.uint64)
        b = rng.integers(0, PRIME, size=5).astype(np.uint64)
        keys = fused_hash(values, a, b, PRIME)
        packed = pack_pairs(affine_hash(values, a, b, PRIME),
                            values.astype(np.uint64))
        for t in range(5):
            assert np.array_equal(np.argsort(keys[t], kind="stable"),
                                  np.argsort(packed[t], kind="stable"))


class TestRecoverTopIds:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        values = rng.choice(10_000, size=(2, 6, 3), replace=False
                            ).astype(np.uint64)
        a = rng.integers(1, PRIME, size=2).astype(np.uint64)
        b = rng.integers(0, PRIME, size=2).astype(np.uint64)
        keys = np.empty(values.shape, dtype=np.uint32)
        for t in range(2):
            keys[t] = ((a[t] * values[t] + b[t]) % np.uint64(PRIME)
                       ).astype(np.uint32)
        ids, packed = recover_top_ids(
            keys, a, b, PRIME, out_packed=np.empty(keys.shape, dtype=np.uint64))
        assert np.array_equal(ids, values)
        expected_packed = pack_pairs(
            keys.astype(np.uint64).reshape(2, -1),
            values.reshape(2, -1)).reshape(values.shape)
        assert np.array_equal(packed, expected_packed)

    @pytest.mark.parametrize("bad", [0, PRIME, PRIME + 3])
    def test_coefficient_outside_range_rejected(self, bad):
        keys = np.zeros((2, 1, 2), dtype=np.uint32)
        a = np.array([5, bad], dtype=np.uint64)
        b = np.array([3, 9], dtype=np.uint64)
        with pytest.raises(ValueError, match="coefficients"):
            recover_top_ids(keys, a, b, PRIME)

    def test_sentinel_keys_become_sentinel_pairs(self):
        keys = np.full((1, 2, 2), SENTINEL32, dtype=np.uint32)
        keys[0, 0, 0] = 42
        a = np.array([1], dtype=np.uint64)
        b = np.array([0], dtype=np.uint64)
        ids, packed = recover_top_ids(
            keys, a, b, PRIME, out_packed=np.empty(keys.shape, dtype=np.uint64))
        assert ids[0, 0, 0] == 42
        assert ids[0, 0, 1] == 0xFFFFFFFF
        assert packed[0, 0, 1] == SENTINEL
        assert packed[0, 1, 0] == SENTINEL


class TestFusedSelectConsume:
    def test_uint32_select_matches_uint64(self):
        rng = np.random.default_rng(4)
        indptr, values = random_csr(rng, n_seg=10, max_len=8)
        a = rng.integers(1, PRIME, size=3).astype(np.uint64)
        b = rng.integers(0, PRIME, size=3).astype(np.uint64)
        keys = fused_hash(values, a, b, PRIME)
        packed = pack_pairs(affine_hash(values, a, b, PRIME), values)
        top32 = segmented_select_top_s(keys.copy(), indptr, 2, consume=True)
        top64 = segmented_select_top_s(packed, indptr, 2)
        # uint32 sentinel where uint64 is SENTINEL; hashes match elsewhere
        mask = top64 == SENTINEL
        assert np.array_equal(top32 == SENTINEL32, mask)
        assert np.array_equal(top32[~mask].astype(np.uint64),
                              top64[~mask] >> np.uint64(32))

    def test_consume_destroys_input_but_not_output(self):
        rng = np.random.default_rng(5)
        indptr, values = random_csr(rng, n_seg=6, max_len=6)
        a = rng.integers(1, PRIME, size=2).astype(np.uint64)
        b = rng.integers(0, PRIME, size=2).astype(np.uint64)
        keys = fused_hash(values, a, b, PRIME)
        expected = segmented_select_top_s(keys.copy(), indptr, 2)
        got = segmented_select_top_s(keys, indptr, 2, consume=True)
        assert np.array_equal(got, expected)


class TestReduceKeysFit:
    def test_fits_small(self):
        assert reduce_keys_fit(16, 1000, 2, 10_000)

    def test_rejects_huge(self):
        assert not reduce_keys_fit(16, 1000, 2, 1 << 40)

    def test_rejects_empty_value_range(self):
        assert not reduce_keys_fit(1, 1, 1, 0)

    def test_exact_boundary(self):
        # t * m^s * n == 2^63 must be rejected, one less accepted
        assert not reduce_keys_fit(1, 1 << 31, 1, 1 << 32)
        assert reduce_keys_fit(1, (1 << 31) - 1, 1, 1 << 32)


class TestChunkReduce:
    def _dense_chunk(self, rng, t=4, n_seg=9, max_len=8, s=2):
        """A chunk with every segment valid (length >= s), plus its dense
        fps/top arrays computed by the unfused pipeline."""
        lengths = rng.integers(s, max_len, size=n_seg)
        indptr = np.zeros(n_seg + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(lengths)
        values = np.concatenate([
            rng.choice(40, size=l, replace=False) for l in lengths
        ]).astype(np.uint64)
        a = rng.integers(1, PRIME, size=t).astype(np.uint64)
        b = rng.integers(0, PRIME, size=t).astype(np.uint64)
        salts = rng.integers(0, 1 << 60, size=t).astype(np.uint64)
        packed = pack_pairs(affine_hash(values, a, b, PRIME), values)
        top = segmented_select_top_s(packed, indptr, s)
        top_ids = top & np.uint64(0xFFFFFFFF)
        fps = fold_fingerprints(top_ids, salts)
        return top_ids, fps, top, salts, indptr

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_dense_aggregation(self, seed):
        from repro.core.aggregate import aggregate_pass

        rng = np.random.default_rng(seed)
        s = 2
        top_ids, fps, top, salts, indptr = self._dense_chunk(rng, s=s)
        n_seg = indptr.size - 1
        gen_ids = np.arange(n_seg, dtype=np.uint32)
        r_fps, r_members, r_counts, r_gens = chunk_reduce(
            top_ids, salts, gen_ids, n_values=40)

        ref = aggregate_pass(fps, top, np.diff(indptr), s)
        assert np.array_equal(r_fps, ref.fingerprints)
        assert np.array_equal(r_members.astype(np.int64), ref.members)
        assert np.array_equal(np.repeat(np.arange(r_counts.size), r_counts),
                              np.repeat(np.arange(ref.gen_graph.n_left),
                                        np.diff(ref.gen_graph.indptr)))
        assert np.array_equal(r_gens.astype(np.int64), ref.gen_graph.indices)

    def test_remapped_gen_ids(self):
        """gen_ids maps columns to original segment ids (driver compaction)."""
        from repro.core.aggregate import aggregate_pass

        rng = np.random.default_rng(7)
        s = 2
        top_ids, fps, top, salts, indptr = self._dense_chunk(rng, s=s)
        n_seg = indptr.size - 1
        valid_ids = (np.arange(n_seg) * 3 + 1).astype(np.uint32)  # sparse ids
        r_fps, r_members, r_counts, r_gens = chunk_reduce(
            top_ids, salts, valid_ids, n_values=40)
        ref = aggregate_pass(fps, top, np.diff(indptr), s,
                             segment_ids=valid_ids.astype(np.int64),
                             n_segments=3 * n_seg + 1)
        assert np.array_equal(r_fps, ref.fingerprints)
        assert np.array_equal(r_gens.astype(np.int64), ref.gen_graph.indices)

    def test_fingerprint_collision_fallback(self):
        """Equal salts across trials force cross-trial fp collisions; the
        merged output must still match the dense np.unique aggregation."""
        from repro.core.aggregate import aggregate_pass

        rng = np.random.default_rng(11)
        s = 2
        t, n_seg = 3, 6
        lengths = np.full(n_seg, 4)
        indptr = np.zeros(n_seg + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(lengths)
        values = np.concatenate([
            rng.choice(8, size=4, replace=False) for _ in range(n_seg)
        ]).astype(np.uint64)
        a = np.ones(t, dtype=np.uint64)  # identity-ish hashes: many dup tuples
        b = np.zeros(t, dtype=np.uint64)
        salts = np.zeros(t, dtype=np.uint64)  # same salt -> collisions certain
        packed = pack_pairs(affine_hash(values, a, b, PRIME), values)
        top = segmented_select_top_s(packed, indptr, s)
        top_ids = np.broadcast_to(top & np.uint64(0xFFFFFFFF),
                                  (t, n_seg, s)).copy()
        fps = fold_fingerprints(top_ids, salts)
        top_t = np.broadcast_to(top, (t, n_seg, s)).copy()
        r_fps, r_members, r_counts, r_gens = chunk_reduce(
            top_ids, salts, np.arange(n_seg, dtype=np.uint32), n_values=8)
        ref = aggregate_pass(fps, top_t, lengths, s)
        assert np.array_equal(r_fps, ref.fingerprints)
        assert np.array_equal(r_members.astype(np.int64), ref.members)
        assert np.array_equal(r_gens.astype(np.int64), ref.gen_graph.indices)

    def test_empty_chunk(self):
        fps, members, counts, gens = chunk_reduce(
            np.empty((0, 0, 2), dtype=np.uint64),
            np.empty(0, dtype=np.uint64),
            np.empty(0, dtype=np.uint32), n_values=1)
        assert fps.size == 0 and members.shape == (0, 2)
        assert counts.size == 0 and gens.size == 0
