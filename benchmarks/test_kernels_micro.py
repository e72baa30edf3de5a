"""Microbenchmarks of the device kernels (the Thrust primitive analogues).

The paper's profile: "roughly 80% of the runtime is consumed by the hashing
and sorting operations" — these benches measure exactly those primitives in
isolation: the affine min-wise hash (``thrust::transform``), the eager
top-s engines, the binned tournament select the fused hot path runs, and
fingerprint folding.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.device.kernels import (
    affine_hash,
    build_tournament_plan,
    fold_fingerprints,
    fused_hash,
    pack_pairs,
    run_tournament,
    segmented_select_top_s,
    segmented_sort_top_s,
    tournament_table,
)
from repro.device.memory import ScratchPool
from repro.util.primes import DEFAULT_PRIME


@pytest.fixture(scope="module")
def batch(scale):
    rng = np.random.default_rng(0)
    nnz = 200_000 if scale == "small" else 2_000_000
    n_seg = nnz // 40
    lengths = rng.multinomial(nnz, np.ones(n_seg) / n_seg)
    indptr = np.zeros(n_seg + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    values = rng.integers(0, 1 << 31, size=nnz, dtype=np.int64).astype(np.uint64)
    a = rng.integers(1, DEFAULT_PRIME, size=8).astype(np.uint64)
    b = rng.integers(0, DEFAULT_PRIME, size=8).astype(np.uint64)
    hashed = affine_hash(values, a, b, DEFAULT_PRIME)
    packed = pack_pairs(hashed, values)
    return values, indptr, a, b, packed


def test_kernel_affine_hash(benchmark, batch):
    values, _, a, b, _ = batch
    out = benchmark(affine_hash, values, a, b, DEFAULT_PRIME)
    assert out.shape == (8, values.size)


def test_kernel_select_top_s(benchmark, batch):
    _, indptr, _, _, packed = batch
    out = benchmark(segmented_select_top_s, packed, indptr, 2)
    assert out.shape[2] == 2


def test_kernel_sort_top_s(benchmark, batch):
    _, indptr, _, _, packed = batch
    out = benchmark(segmented_sort_top_s, packed, indptr, 2)
    ref = segmented_select_top_s(packed, indptr, 2)
    assert np.array_equal(out, ref)


@pytest.fixture(scope="module")
def skewed_batch(scale):
    """A power-law degree sequence plus one hub, as in an R-MAT graph:
    distinct ids per segment, so the tournament plan accepts it."""
    rng = np.random.default_rng(1)
    n_seg, hub = (4_000, 10_000) if scale == "small" else (40_000, 100_000)
    n_values = 4 * hub
    lengths = np.minimum(2 + rng.zipf(1.8, size=n_seg), hub // 10)
    lengths[n_seg // 2] = hub
    elements = np.concatenate([rng.choice(n_values, size=int(n), replace=False)
                               for n in lengths])
    indptr = np.zeros(n_seg + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    a = rng.integers(1, DEFAULT_PRIME, size=16).astype(np.uint64)
    b = rng.integers(0, DEFAULT_PRIME, size=16).astype(np.uint64)
    return elements, indptr, n_values, a, b


def test_kernel_tournament(benchmark, skewed_batch):
    elements, indptr, n_values, a, b = skewed_batch
    plan = build_tournament_plan(elements, indptr, 2, n_values)
    pool = ScratchPool()
    out = np.empty((a.size, indptr.size - 1, 2), dtype=np.uint32)

    def select():
        table = tournament_table(plan, a, b, DEFAULT_PRIME, scratch=pool)
        run_tournament(plan, table, 2, out=out, scratch=pool)
        pool.give(table)
        return out

    got = benchmark(select)
    keys = fused_hash(elements, a, b, DEFAULT_PRIME, n_values=n_values)
    ref = segmented_select_top_s(keys, indptr, 2)
    assert np.array_equal(got, ref[:, plan.perm, :])


def test_kernel_fingerprint_fold(benchmark, batch):
    _, indptr, _, _, packed = batch
    top = segmented_select_top_s(packed, indptr, 2)
    salts = np.arange(8, dtype=np.uint64)
    out = benchmark(fold_fingerprints, top & np.uint64(0xFFFFFFFF), salts)
    assert out.shape == (8, indptr.size - 1)
