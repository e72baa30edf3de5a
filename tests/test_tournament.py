"""Tournament selection: the fused reduce path's top-``s`` select.

The tournament must be invisible in every output: for any geometry the
plan accepts, tournament + id recovery equals the eager ``fused_hash`` +
``segmented_select_top_s`` + recovery under the plan's column permutation,
and ``chunk_reduce`` over the permuted block equals the unpermuted call.
Geometries the plan rejects fall back to the eager select.  The
single-batch fast path of ``plan_batches`` must build exactly the greedy
loop's plan.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import device_exec
from repro.core.aggregate import aggregate_pass, set_debug_checks
from repro.core.device_exec import device_shingle_pass, device_union_pass
from repro.core.params import ShinglingParams
from repro.core.report import PartitionFold
from repro.core.serial import serial_shingle_pass
from repro.device import kernels
from repro.device.batching import _greedy_batches, plan_batches
from repro.device.device import SimulatedDevice
from repro.device.kernels import (build_tournament_plan, chunk_reduce,
                                  fold_fingerprints, fused_hash,
                                  recover_top_ids, run_tournament,
                                  segmented_select_top_s, tournament_table)
from repro.device.memory import ScratchPool
from repro.util.primes import DEFAULT_PRIME

PRIME = DEFAULT_PRIME

#: Segments that break the passes' precondition: ids repeat within two.
DUPLICATE_SEGMENTS = [[1, 2, 2, 5], [0, 3, 7], [4, 4, 6, 8]]


def _csr(segments):
    lengths = np.array([len(seg) for seg in segments], dtype=np.int64)
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    elements = (np.concatenate(segments) if segments
                else np.empty(0)).astype(np.int64)
    return elements, indptr


def _random_geometry(rng, n_seg, s, n_values, long_every=0):
    """Distinct-id segments of length >= s; every ``long_every``-th segment
    is long enough that its bin pads past 1000 rows."""
    segments = []
    for i in range(n_seg):
        if long_every and i % long_every == 0:
            length = int(rng.integers(1001, min(n_values, 1400) + 1))
        else:
            length = int(rng.integers(s, min(n_values, 12) + 1))
        ids = rng.choice(n_values, size=length, replace=False)
        if rng.random() < 0.5:
            ids.sort()  # sorted lists take the plan's O(nnz) proof
        segments.append(ids)
    return _csr(segments)


def _tournament_ids(plan, a, b, s):
    table = tournament_table(plan, a, b, PRIME)
    top32 = np.empty((a.size, plan.n_seg, s), dtype=np.uint32)
    run_tournament(plan, table, s, out=top32, scratch=ScratchPool())
    return recover_top_ids(top32, a, b, PRIME, has_sentinels=False)[0]


def _eager_ids(elements, indptr, a, b, s, n_values):
    keys = fused_hash(elements, a, b, PRIME, n_values=n_values)
    top32 = segmented_select_top_s(keys, indptr, s)
    return recover_top_ids(top32, a, b, PRIME, has_sentinels=False)[0]


def _brute_force_ids(elements, indptr, a, b, s):
    out = np.empty((a.size, indptr.size - 1, s), dtype=np.uint64)
    for i in range(a.size):
        for seg in range(indptr.size - 1):
            ids = elements[indptr[seg]:indptr[seg + 1]].astype(np.uint64)
            keys = (a[i] * ids + b[i]) % np.uint64(PRIME)
            out[i, seg] = ids[np.argsort(keys)][:s]
    return out


@st.composite
def geometries(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    s = draw(st.integers(1, 4))
    n_seg = draw(st.integers(1, 30))
    long_every = draw(st.sampled_from([0, 0, 7]))
    n_values = draw(st.integers(1001, 1500) if long_every
                    else st.integers(max(s, 2), 60))
    t = draw(st.integers(1, 4))
    a = draw(st.lists(st.integers(1, PRIME - 1), min_size=t, max_size=t))
    b = draw(st.lists(st.integers(0, PRIME - 1), min_size=t, max_size=t))
    return seed, s, n_seg, n_values, long_every, a, b


@settings(max_examples=40, deadline=None)
@given(geometries())
def test_tournament_equals_eager_select(geometry):
    seed, s, n_seg, n_values, long_every, a, b = geometry
    rng = np.random.default_rng(seed)
    elements, indptr = _random_geometry(rng, n_seg, s, n_values,
                                        long_every=long_every)
    a = np.array(a, dtype=np.uint64)
    b = np.array(b, dtype=np.uint64)
    plan = build_tournament_plan(elements, indptr, s, n_values)
    assert plan is not None
    got = _tournament_ids(plan, a, b, s)
    expected = _eager_ids(elements, indptr, a, b, s, n_values)
    assert np.array_equal(got, expected[:, plan.perm, :])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tournament_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    s, n_values = 2, 101
    elements, indptr = _random_geometry(rng, 17, s, n_values)
    plan = build_tournament_plan(elements, indptr, s, n_values)
    a = rng.integers(1, PRIME, 5).astype(np.uint64)
    b = rng.integers(0, PRIME, 5).astype(np.uint64)
    expected = _brute_force_ids(elements, indptr, a, b, s)
    assert np.array_equal(_tournament_ids(plan, a, b, s),
                          expected[:, plan.perm, :])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_chunk_reduce_permuted_equals_unpermuted(seed, s):
    rng = np.random.default_rng(seed)
    n_values = int(rng.integers(s + 1, 30))
    elements, indptr = _random_geometry(rng, int(rng.integers(1, 25)), s,
                                        n_values)
    plan = build_tournament_plan(elements, indptr, s, n_values)
    t = int(rng.integers(1, 4))
    a = rng.integers(1, PRIME, t).astype(np.uint64)
    b = rng.integers(0, PRIME, t).astype(np.uint64)
    salts = rng.integers(0, 2**63, t).astype(np.uint64)
    gen_ids = np.sort(rng.choice(1000, size=plan.n_seg, replace=False)
                      ).astype(np.uint32)
    ref = chunk_reduce(_eager_ids(elements, indptr, a, b, s, n_values),
                       salts, gen_ids, n_values)
    got = chunk_reduce(_tournament_ids(plan, a, b, s), salts, gen_ids,
                       n_values, col_ids=plan.perm_cols)
    for want, have in zip(ref, got):
        assert want.dtype == have.dtype
        assert np.array_equal(want, have)


@st.composite
def tall_bins(draw):
    """A bin of ``m`` equal-length segments whose row count sits at a
    block boundary, among short segments, and the block size at which
    that bin folds ``block`` rows per step."""
    s = draw(st.integers(1, 4))
    t = draw(st.integers(1, 4))
    m = draw(st.sampled_from([1, 1, 2, 3]))
    block = draw(st.integers(1, 9))
    n_blocks = draw(st.integers(0, 4))
    # The first block holds block + 1 rows, later ones block rows: an
    # offset of 0 ends on a boundary, -1 falls one short, 1 straddles it.
    offset = draw(st.sampled_from([-1, 0, 1, 2]))
    rows = max(s, 1 + n_blocks * block + offset)
    n_short = draw(st.integers(0, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    a = draw(st.lists(st.integers(1, PRIME - 1), min_size=t, max_size=t))
    b = draw(st.lists(st.integers(0, PRIME - 1), min_size=t, max_size=t))
    return s, m, block, rows, n_short, seed, a, b


@settings(max_examples=60, deadline=None)
@given(tall_bins())
def test_tall_bins_equal_brute_force_and_eager(case):
    s, m, block, rows, n_short, seed, a, b = case
    rng = np.random.default_rng(seed)
    n_values = rows + 8
    segments = [rng.choice(n_values, size=rows, replace=False)
                for _ in range(m)]
    short = min(rows, s + 2)
    segments += [rng.choice(n_values, size=int(rng.integers(s, short + 1)),
                            replace=False) for _ in range(n_short)]
    order = rng.permutation(len(segments))
    elements, indptr = _csr([segments[i] for i in order])
    a = np.array(a, dtype=np.uint64)
    b = np.array(b, dtype=np.uint64)
    plan = build_tournament_plan(elements, indptr, s, n_values)
    # Short segments may share the tall bin's log2 bucket and widen it.
    (width,) = [idx.shape[1] for _, idx in plan.bins if idx.shape[0] == rows]
    assert width >= m
    with mock.patch.object(kernels, "TOURNAMENT_BLOCK",
                           block * width * a.size):
        got = _tournament_ids(plan, a, b, s)
    expected = _brute_force_ids(elements, indptr, a, b, s)[:, plan.perm, :]
    assert np.array_equal(got, expected)
    eager = _eager_ids(elements, indptr, a, b, s, n_values)
    assert np.array_equal(got, eager[:, plan.perm, :])


def _hub_geometry(rng, hub, n_short, s, n_values):
    """An R-MAT-like batch: one hub segment of ``hub`` ids among short,
    power-law segments."""
    lengths = np.minimum(s + rng.zipf(2.0, size=n_short) - 1, 200)
    segments = [rng.choice(n_values, size=int(n), replace=False)
                for n in lengths]
    segments.insert(int(rng.integers(0, n_short + 1)),
                    np.sort(rng.choice(n_values, size=hub, replace=False)))
    return _csr(segments)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_hub_geometry_equals_brute_force_and_eager(s):
    # Sixteen trials split the 10k-row hub into several blocks.
    rng = np.random.default_rng(40 + s)
    n_values = 12_000
    elements, indptr = _hub_geometry(rng, 10_007, 60, s, n_values)
    plan = build_tournament_plan(elements, indptr, s, n_values)
    assert plan.bins[-1][1].shape == (10_007, 1)
    a = rng.integers(1, PRIME, 16).astype(np.uint64)
    b = rng.integers(0, PRIME, 16).astype(np.uint64)
    got = _tournament_ids(plan, a, b, s)
    expected = _brute_force_ids(elements, indptr, a, b, s)[:, plan.perm, :]
    assert np.array_equal(got, expected)
    eager = _eager_ids(elements, indptr, a, b, s, n_values)
    assert np.array_equal(got, eager[:, plan.perm, :])


class _CountingNumpy:
    """Stands in for ``numpy`` inside the kernels module and counts the
    gathers and element-wise ufunc calls made through it."""

    COUNTED = ("take", "maximum", "minimum", "copyto")

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.COUNTED:
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)
        return counted


class TestHubBin:
    ROWS = 9_669
    INDPTR = np.array([0, ROWS])

    def _hub(self, s):
        rng = np.random.default_rng(7)
        elements = rng.choice(20_000, size=self.ROWS, replace=False)
        return elements, build_tournament_plan(elements, self.INDPTR, s,
                                               20_000)

    @pytest.mark.parametrize("s", [1, 2, 4])
    def test_calls_grow_with_log_rows(self, monkeypatch, s):
        """A single-hub bin folds in one block here (4 trials): its ufunc
        calls follow the merge tree's depth, not the row count."""
        elements, plan = self._hub(s)
        rng = np.random.default_rng(8)
        a = rng.integers(1, PRIME, 4).astype(np.uint64)
        b = rng.integers(0, PRIME, 4).astype(np.uint64)
        table = tournament_table(plan, a, b, PRIME)
        top32 = np.empty((4, 1, s), dtype=np.uint32)
        spy = _CountingNumpy()
        monkeypatch.setattr(kernels, "np", spy)
        run_tournament(plan, table, s, out=top32)
        monkeypatch.undo()
        depth = int(np.ceil(np.log2(self.ROWS)))
        # One gather, then at most s * s ufunc calls per tree level.
        assert 0 < spy.calls <= 1 + s * s * depth
        assert np.array_equal(
            recover_top_ids(top32, a, b, PRIME, has_sentinels=False)[0],
            _brute_force_ids(elements, self.INDPTR, a, b, s))

    def test_second_call_allocates_nothing(self):
        _, plan = self._hub(2)
        rng = np.random.default_rng(9)
        pool = ScratchPool()
        counts = []
        for _ in range(2):
            a = rng.integers(1, PRIME, 16).astype(np.uint64)
            b = rng.integers(0, PRIME, 16).astype(np.uint64)
            table = tournament_table(plan, a, b, PRIME, scratch=pool)
            top32 = pool.take((16, 1, 2), np.uint32)
            run_tournament(plan, table, 2, out=top32, scratch=pool)
            pool.give(table, top32)
            counts.append((pool.n_allocations, pool.bytes_allocated))
        assert counts[1] == counts[0]
        assert pool.n_reuses >= counts[0][0]


class TestPlanRejects:
    def test_short_segment(self):
        elements, indptr = _csr([[3], [0, 1, 2]])
        assert build_tournament_plan(elements, indptr, 2, 10) is None

    def test_duplicate_ids(self):
        elements, indptr = _csr([[1, 2], [4, 5, 4]])
        assert build_tournament_plan(elements, indptr, 2, 10) is None

    def test_duplicate_in_sorted_segment(self):
        # Non-decreasing but not strictly rising: the packed sort decides.
        elements, indptr = _csr([[1, 2, 2], [0, 7]])
        assert build_tournament_plan(elements, indptr, 2, 10) is None

    def test_empty(self):
        assert build_tournament_plan(np.empty(0, np.int64),
                                     np.zeros(1, np.int64), 2, 10) is None

    def test_unsorted_distinct_segments_accepted(self):
        elements, indptr = _csr([[5, 1, 3], [9, 0]])
        assert build_tournament_plan(elements, indptr, 2, 10) is not None

    def test_short_segments_match_serial(self):
        """Short segments never reach the plan: the driver compacts them
        away, plans the rest, and still matches the serial pass."""
        rng = np.random.default_rng(5)
        segments = [rng.choice(40, size=int(rng.integers(0, 8)),
                               replace=False) for _ in range(30)]
        elements, indptr = _csr(segments)
        params = ShinglingParams(c1=7, c2=4, seed=3, trial_chunk=3)
        config = params.pass_config(1)
        ref = serial_shingle_pass(indptr, elements, config)
        got = device_shingle_pass(indptr, elements, config, SimulatedDevice(),
                                  kernel="fused", trial_chunk=3)
        assert got == ref

    def test_duplicates_fall_back_to_eager_select(self, monkeypatch):
        """A repeated id defeats the plan; the pass then runs the eager
        select.  The serial reference requires duplicate-free lists, so the
        eager fused sequence, aggregated on the host, is the reference
        here.  Debug checks refuse such input, so this raw call runs with
        them off, as a production run does."""
        set_debug_checks(False)
        elements, indptr = _csr(DUPLICATE_SEGMENTS)
        seen = []
        real_build = device_exec.build_tournament_plan

        def spy(*args):
            plan = real_build(*args)
            seen.append(plan)
            return plan

        monkeypatch.setattr(device_exec, "build_tournament_plan", spy)
        config = ShinglingParams(c1=6, c2=4, seed=2).pass_config(1)
        got = device_shingle_pass(indptr, elements, config, SimulatedDevice(),
                                  kernel="fused", trial_chunk=2)
        a, b = config.a_array, config.b_array
        top32 = segmented_select_top_s(fused_hash(elements, a, b, PRIME),
                                       indptr, config.s)
        ids, top = recover_top_ids(top32, a, b, PRIME,
                                   out_packed=np.empty(top32.shape, np.uint64))
        ref = aggregate_pass(fold_fingerprints(ids, config.salts), top,
                             np.diff(indptr), config.s)
        assert seen == [None]
        assert got == ref


    @pytest.mark.parametrize("kernel", ["fused", "sort"])
    def test_duplicates_rejected_under_debug_checks(self, kernel):
        """On repeated ids the kernels disagree with each other and with
        the serial pass, so with debug checks on both passes refuse the
        input before any kernel runs."""
        elements, indptr = _csr(DUPLICATE_SEGMENTS)
        config = ShinglingParams(c1=6, c2=4, seed=2).pass_config(1)
        with pytest.raises(ValueError, match="repeats"):
            device_shingle_pass(indptr, elements, config, SimulatedDevice(),
                                kernel=kernel, trial_chunk=2)
        with pytest.raises(ValueError, match="repeats"):
            device_union_pass(indptr, elements, config, SimulatedDevice(),
                              members1=np.arange(6).reshape(3, 2),
                              n_vertices=9, kernel=kernel, trial_chunk=2)


class TestSelectionSetup:
    @pytest.mark.parametrize("kernel,table", [
        ("sort", "seg_ids"), ("fused", "plan"),
    ], ids=["sort", "fused"])
    def test_built_once_per_pass(self, monkeypatch, kernel, table):
        """What the single-batch passes build before their 5 chunk rounds:
        only ``fused`` runs a tournament, so only it plans one; the sort
        builds the segment-id table instead.  Pass I builds it once per
        pass, not per chunk; the direct pass II once per distinct set of
        unsettled lists it shingles."""
        set_debug_checks(False)  # the debug re-check builds its own table
        calls = {"plan": 0, "seg_ids": 0}
        real_plan = device_exec.build_tournament_plan
        real_seg_ids = kernels.segment_element_ids

        def plan(*args):
            calls["plan"] += 1
            return real_plan(*args)

        def seg_ids(indptr):
            calls["seg_ids"] += 1
            return real_seg_ids(indptr)

        monkeypatch.setattr(device_exec, "build_tournament_plan", plan)
        monkeypatch.setattr(device_exec, "segment_element_ids", seg_ids)
        monkeypatch.setattr(kernels, "segment_element_ids", seg_ids)
        rng = np.random.default_rng(3)
        elements, indptr = _random_geometry(rng, 30, 2, 60)
        config = ShinglingParams(c1=9, seed=4).pass_config(1)
        got = device_shingle_pass(indptr, elements, config, SimulatedDevice(),
                                  kernel=kernel, trial_chunk=2)
        assert calls[table] == 1
        assert calls["plan"] + calls["seg_ids"] == 1
        assert got == serial_shingle_pass(indptr, elements, config)

        # Sets only shrink, so a size names the set it was pruned to.
        active = []
        real_prune = PartitionFold.prune

        def prune(self, *lists):
            out = real_prune(self, *lists)
            active.append(out[0].size)
            return out

        monkeypatch.setattr(PartitionFold, "prune", prune)
        device = SimulatedDevice()
        device_union_pass(indptr, elements, config, device,
                          members1=rng.integers(0, 60, (30, 2)),
                          n_vertices=60, kernel=kernel, trial_chunk=2)
        rounds = device.obs.metrics.snapshot()["counters"][
            "shingle.pass2_rounds"]
        assert rounds >= 1
        n_sets = len(set(active) - {0})
        assert calls[table] == 1 + n_sets
        assert calls["plan"] + calls["seg_ids"] == 1 + n_sets


class TestDevicePath:
    def _setup(self, rng, s=2, n_values=50):
        elements, indptr = _random_geometry(rng, 20, s, n_values)
        device = SimulatedDevice()
        d_elems = device.upload(elements)
        d_indptr = device.upload(indptr)
        d_gens = device.upload(np.arange(indptr.size - 1, dtype=np.uint32))
        plan = build_tournament_plan(elements, indptr, s, n_values)
        return device, (d_elems, d_indptr, d_gens), plan, n_values

    def _call(self, device, bufs, plan, n_values, a, b, **kw):
        salts = np.arange(1, a.size + 1, dtype=np.uint64)
        return device.shingle_chunk_reduce(
            *bufs, a=a, b=b, prime=PRIME, s=2, salts=salts,
            n_values=n_values, tournament=plan, **kw)

    def test_tournament_call_equals_eager_call(self):
        rng = np.random.default_rng(11)
        device, bufs, plan, n_values = self._setup(rng)
        a = rng.integers(1, PRIME, 4).astype(np.uint64)
        b = rng.integers(0, PRIME, 4).astype(np.uint64)
        got = self._call(device, bufs, plan, n_values, a, b, check=True)
        ref = self._call(device, bufs, None, n_values, a, b)
        for want, have in zip(ref, got):
            assert np.array_equal(want, have)

    def test_zero_coefficient_rejected(self):
        """A zero coefficient maps every id to ``b``: no engine can recover
        the ids, so the call raises and leaves nothing on the device."""
        rng = np.random.default_rng(12)
        device, bufs, plan, n_values = self._setup(rng)
        resident = device.memory.used_bytes
        a = np.array([0, 5], dtype=np.uint64)
        b = np.array([3, 9], dtype=np.uint64)
        for tournament in (plan, None):
            with pytest.raises(ValueError, match="coefficients"):
                self._call(device, bufs, tournament, n_values, a, b,
                           check=True)
        assert device.memory.used_bytes == resident

    def test_working_set_is_charged(self):
        rng = np.random.default_rng(13)
        device, bufs, plan, n_values = self._setup(rng)
        resident = device.memory.used_bytes
        a = rng.integers(1, PRIME, 3).astype(np.uint64)
        b = rng.integers(0, PRIME, 3).astype(np.uint64)
        self._call(device, bufs, plan, n_values, a, b)
        table_bytes = 3 * (n_values + 1) * 4
        block_bytes = 3 * plan.n_seg * 2 * (4 + 8)
        assert device.memory.peak_bytes >= resident + table_bytes + block_bytes
        assert device.memory.used_bytes == resident

    def test_ids_call_equals_eager_ids(self):
        rng = np.random.default_rng(15)
        device, (d_elems, d_indptr, _), plan, n_values = self._setup(rng)
        elements = d_elems.device_view()
        indptr = d_indptr.device_view()
        resident = device.memory.used_bytes
        d2h = device.memory.bytes_to_host
        for kernel in ("fused", "sort"):
            a = rng.integers(1, PRIME, 3).astype(np.uint64)
            b = rng.integers(0, PRIME, 3).astype(np.uint64)
            ids, perm = device.shingle_chunk_ids(
                d_elems, d_indptr, a=a, b=b, prime=PRIME, s=2,
                n_values=n_values, tournament=plan, kernel=kernel,
                check=True)
            eager = recover_top_ids(
                segmented_select_top_s(fused_hash(elements, a, b, PRIME),
                                       indptr, 2),
                a, b, PRIME, has_sentinels=False)[0]
            if kernel == "fused":
                assert np.array_equal(perm, plan.perm)
                eager = eager[:, perm]
            else:  # the sort ignores the plan: segment order
                assert perm is None
            assert ids.dtype == np.uint32
            assert np.array_equal(ids, eager)
        assert device.memory.used_bytes == resident
        assert device.memory.bytes_to_host - d2h == 2 * 3 * plan.n_seg * 2 * 4

    def test_check_catches_a_wrong_selection(self, monkeypatch):
        rng = np.random.default_rng(14)
        device, bufs, plan, n_values = self._setup(rng)
        real_run = kernels.run_tournament

        def corrupt(plan, table, s, out, scratch=None):
            real_run(plan, table, s, out, scratch)
            out[:, [0, -1]] = out[:, [-1, 0]]
            return out

        monkeypatch.setattr(kernels, "run_tournament", corrupt)
        a = rng.integers(1, PRIME, 2).astype(np.uint64)
        b = rng.integers(0, PRIME, 2).astype(np.uint64)
        with pytest.raises(AssertionError, match="tournament"):
            self._call(device, bufs, plan, n_values, a, b, check=True)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=0, max_size=25),
       st.integers(1, 120))
def test_plan_batches_fast_path_equals_greedy(lengths, max_elements):
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    got = plan_batches(indptr, max_elements).batches
    want = _greedy_batches(indptr, max_elements)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.element_lo, g.element_hi) == (w.element_lo, w.element_hi)
        for field in ("local_indptr", "segment_ids", "is_split"):
            assert getattr(g, field).dtype == getattr(w, field).dtype
            assert np.array_equal(getattr(g, field), getattr(w, field))
