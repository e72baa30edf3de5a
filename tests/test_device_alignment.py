"""Length-binned alignment: kernels, bin planner, scorer, backend rule.

The central contract is bit-identity: the binned path
(:mod:`repro.sequence.binned` — length-binned packing + ramped row-scan
kernels, run by ``auto``'s ``local`` backend and by the pool workers)
must reproduce the host batched Smith-Waterman scores exactly, for both
gap models, every DP dtype the escalation rule can pick, and any bin
geometry.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.memory import ScratchPool
from repro.obs import observe, use_obs
from repro.sequence import binned as binned_mod
from repro.sequence import homology as homology_mod
from repro.sequence.arena import flatten_sequences
from repro.sequence.binned import (
    ROW_BUCKET,
    AlignmentBin,
    AlignmentBinPlan,
    pack_bin_blocks,
    plan_alignment_bins,
    rowscan_affine_binned,
    rowscan_linear_binned,
    score_pairs_binned,
)
from repro.sequence.homology import (
    MIN_POOL_PAIRS_PER_WORKER,
    HomologyConfig,
    build_homology_graph,
    choose_align_backend,
)
from repro.sequence.scoring import BLOSUM62
from repro.sequence.smith_waterman import (
    batch_smith_waterman,
    batch_smith_waterman_affine,
    dp_dtype,
    prefix_max,
    sw_score_affine,
    sw_score_linear,
)
from tests.conftest import pool_alignment


def random_seqs(rng, n, len_max=80, allow_empty=True):
    lo = 0 if allow_empty else 1
    return [rng.integers(0, 21, size=int(rng.integers(lo, len_max)),
                         ).astype(np.uint8) for _ in range(n)]


def random_pairs(rng, n_seqs, n_pairs):
    return rng.integers(0, n_seqs, size=(n_pairs, 2)).astype(np.int64)


def binned_scores(seqs, pairs, **kw):
    """:func:`score_pairs_binned` on a sequence list's flat CSR."""
    residues, offsets = flatten_sequences(seqs)
    return score_pairs_binned(residues, offsets, pairs, **kw)


def bin_plan(seqs, pairs, penalties=(8,)):
    """The bin plan :func:`score_pairs_binned` scores ``pairs`` under."""
    lengths = np.array([s.size for s in seqs], dtype=np.int64)
    return binned_mod._plan_bins(np.asarray(pairs, dtype=np.int64), lengths,
                                 BLOSUM62, penalties)[0]


# --------------------------------------------------------------------- #
# Bin planner
# --------------------------------------------------------------------- #

def naive_plan(short_lens, long_lens, dtype_for, max_pairs, max_waste,
               min_pairs, max_block_bytes=None):
    """Reference planner: the greedy cut rule evaluated pair by pair."""
    short_lens = np.asarray(short_lens, dtype=np.int64)
    long_lens = np.asarray(long_lens, dtype=np.int64)
    order = np.lexsort((short_lens, long_lens))
    ls, ll = short_lens[order], long_lens[order]
    cum = np.concatenate([[0], np.cumsum(ls * ll)])
    bins = []
    lo, max_s, max_l, cur = 0, 0, 0, None

    def close(hi):
        bins.append(AlignmentBin(
            order_lo=lo, order_hi=hi, max_short=max_s, max_long=max_l,
            dtype=cur, padded_cells=(hi - lo) * max_s * max_l,
            actual_cells=int(cum[hi] - cum[lo])))

    for i in range(order.size):
        new_s, new_l = max(max_s, int(ls[i])), max(max_l, int(ll[i]))
        new_dtype = dtype_for(new_s, new_l)
        size = i - lo + 1
        padded = size * new_s * new_l
        wasteful = (size > min_pairs and padded > 0
                    and 1.0 - int(cum[i + 1] - cum[lo]) / padded > max_waste)
        too_big = (max_block_bytes is not None and size > 1
                   and size * new_l * new_dtype.itemsize > max_block_bytes)
        if size > max_pairs or (cur is not None and new_dtype != cur) \
                or wasteful or too_big:
            close(i)
            lo = i
            new_s, new_l = int(ls[i]), int(ll[i])
            new_dtype = dtype_for(new_s, new_l)
        max_s, max_l, cur = new_s, new_l, new_dtype
    if order.size:
        close(order.size)
    return AlignmentBinPlan(bins=bins, order=order)


class TestBinPlanner:
    def dtype_for(self, gap=8):
        return lambda s, l: dp_dtype(s, l, BLOSUM62, (gap,))

    def test_partition_covers_all_pairs_in_order(self):
        rng = np.random.default_rng(0)
        short = rng.integers(1, 200, size=500)
        long_ = short + rng.integers(0, 100, size=500)
        plan = plan_alignment_bins(short, long_, self.dtype_for())
        assert plan.bins[0].order_lo == 0
        for prev, cur in zip(plan.bins, plan.bins[1:]):
            assert prev.order_hi == cur.order_lo
        assert plan.bins[-1].order_hi == 500
        assert sorted(plan.order.tolist()) == list(range(500))

    def test_bins_are_length_sorted_and_sized(self):
        rng = np.random.default_rng(1)
        short = rng.integers(1, 50, size=1000)
        long_ = short + rng.integers(0, 30, size=1000)
        plan = plan_alignment_bins(short, long_, self.dtype_for(),
                                   max_pairs=64)
        for b in plan.bins:
            assert b.n_pairs <= 64
            members = plan.order[b.order_lo:b.order_hi]
            assert short[members].max() == b.max_short
            assert long_[members].max() == b.max_long

    def test_dtype_homogeneous_bins(self):
        # Lengths straddling the int16 escalation boundary must be cut
        # into dtype-pure bins.
        short = np.array([10, 20, 3000, 4000])
        long_ = np.array([10, 20, 3000, 4000])
        plan = plan_alignment_bins(short, long_, self.dtype_for(),
                                   min_pairs=1)
        seen = set()
        for b in plan.bins:
            members = plan.order[b.order_lo:b.order_hi]
            for m in members:
                assert dp_dtype(int(short[m]), int(long_[m]), BLOSUM62,
                                (8,)) <= b.dtype
            seen.add(b.dtype.name)
        assert seen == {"int16", "int32"}

    def test_waste_bounded_beyond_min_pairs(self):
        # A pathological mix: many tiny pairs then one giant one.  With
        # min_pairs=1 the waste rule must keep every bin under the cap.
        short = np.array([4] * 200 + [400])
        long_ = np.array([5] * 200 + [500])
        plan = plan_alignment_bins(short, long_, self.dtype_for(),
                                   max_waste=0.25, min_pairs=1)
        for b in plan.bins:
            assert b.padding_waste <= 0.25 + 1e-9
        assert plan.padding_waste <= 0.25 + 1e-9

    def test_empty_input(self):
        plan = plan_alignment_bins(np.empty(0, dtype=np.int64),
                                   np.empty(0, dtype=np.int64),
                                   self.dtype_for())
        assert plan.n_bins == 0
        assert plan.padding_waste == 0.0

    def test_homogeneous_lengths_waste_free(self):
        short = np.full(100, 17)
        long_ = np.full(100, 23)
        plan = plan_alignment_bins(short, long_, self.dtype_for())
        assert plan.padding_waste == 0.0

    def test_dtype_rule_runs_once_per_geometry(self):
        calls = []

        def rule(s, l):
            calls.append((s, l))
            return dp_dtype(s, l, BLOSUM62, (8,))

        short = np.tile(np.arange(10, 20), 300)
        plan = plan_alignment_bins(short, short + 5, rule)
        assert plan.order.size == 3000
        assert len(calls) == len(set(calls))

    @given(data=st.data(),
           n=st.integers(0, 400),
           max_pairs=st.sampled_from([1, 3, 17, 64, 384]),
           min_pairs=st.sampled_from([0, 1, 8, 32]),
           max_waste=st.sampled_from([0.0, 0.1, 0.25, 0.6]),
           gap=st.sampled_from([1, 8, 600]),
           max_block_bytes=st.sampled_from([None, 1, 4000, 60_000]))
    @settings(max_examples=60, deadline=None)
    def test_plan_equals_naive_per_pair_planner(self, data, n, max_pairs,
                                                min_pairs, max_waste, gap,
                                                max_block_bytes):
        """The array-pass planner cuts exactly where the per-pair greedy
        loop does, across the int16 -> int32 boundary (about 1470 residues
        at gap 8), with empty sequences in the mix and under a block-byte
        cap."""
        base = data.draw(st.sampled_from([0, 60, 1300, 1450]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        short = base + rng.integers(0, 200, size=n)
        short[rng.random(n) < 0.05] = 0
        long_ = short + rng.integers(0, 120, size=n)
        rule = self.dtype_for(gap)
        got = plan_alignment_bins(short, long_, rule, max_pairs=max_pairs,
                                  max_waste=max_waste, min_pairs=min_pairs,
                                  max_block_bytes=max_block_bytes)
        ref = naive_plan(short, long_, rule, max_pairs=max_pairs,
                         max_waste=max_waste, min_pairs=min_pairs,
                         max_block_bytes=max_block_bytes)
        assert np.array_equal(got.order, ref.order)
        assert got.bins == ref.bins


# --------------------------------------------------------------------- #
# Pack + scan + rowscan kernels
# --------------------------------------------------------------------- #

#: Row counts the prefix-max property always tries: powers of two and
#: their neighbours, where the doubling passes end.
SCAN_ROWS = sorted({max(1, (1 << p) + d)
                    for p in range(10) for d in (-1, 0, 1)})


class TestKernels:
    def test_pack_blocks_match_naive(self):
        rng = np.random.default_rng(2)
        seqs = random_seqs(rng, 20, len_max=30)
        residues, offsets = flatten_sequences(seqs)
        residues16 = residues.astype(np.int16)
        short_ids = np.array([0, 3, 7, 19])
        long_ids = np.array([1, 2, 7, 0])
        ms = max(seqs[i].size for i in short_ids)
        ml = max(seqs[i].size for i in long_ids)
        arow, bt, long_col = pack_bin_blocks(residues16, offsets, short_ids,
                                             long_ids, ms, ml)
        assert arow.shape == (max(ms, 1), 4)
        assert bt.shape == (max(ml, 1), 4)
        for col, (i, j) in enumerate(zip(short_ids, long_ids)):
            a, b = seqs[i], seqs[j]
            expect_a = np.full(max(ms, 1), 21, dtype=np.int16)
            expect_a[:a.size] = a
            assert np.array_equal(arow[:, col], expect_a)
            expect_b = np.full(max(ml, 1), 21, dtype=np.int16)
            expect_b[:b.size] = b
            assert np.array_equal(bt[:, long_col[col]], expect_b)

    def test_pack_dedupes_long_sequences(self):
        rng = np.random.default_rng(2)
        seqs = random_seqs(rng, 6, len_max=30, allow_empty=False)
        residues, offsets = flatten_sequences(seqs)
        long_ids = np.array([4, 1, 4, 4, 1])
        ml = max(seqs[i].size for i in long_ids)
        _, bt, long_col = pack_bin_blocks(
            residues.astype(np.int16), offsets, np.zeros(5, dtype=np.int64),
            long_ids, seqs[0].size, ml)
        assert bt.shape == (ml, 2)          # one column per distinct sequence
        for col, j in enumerate(long_ids):
            assert np.array_equal(bt[:seqs[j].size, long_col[col]], seqs[j])

    @settings(max_examples=60, deadline=None)
    @given(rows=st.one_of(st.sampled_from(SCAN_ROWS), st.integers(1, 600)),
           cols=st.integers(1, 40),
           dtype=st.sampled_from([np.int16, np.int32, np.int64]),
           keep_input=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_prefix_max_equals_accumulate(self, rows, cols, dtype,
                                          keep_input, seed):
        info = np.iinfo(dtype)
        x = np.random.default_rng(seed).integers(
            info.min, info.max, size=(rows, cols), dtype=dtype,
            endpoint=True)
        expect = np.maximum.accumulate(x, axis=0)
        before = x.copy()
        y = np.empty_like(x)
        z = np.empty_like(x) if keep_input else None
        got = prefix_max(x, y, z)
        assert got.dtype == dtype
        assert np.array_equal(got, expect)
        assert any(got is buf for buf in (x, y, z))
        if keep_input:
            assert np.array_equal(x, before)

    @pytest.mark.parametrize("gap", [0, 1, 8])
    def test_rowscan_linear_binned_matches_host(self, gap):
        rng = np.random.default_rng(4)
        seqs = random_seqs(rng, 40, len_max=70)
        pairs = random_pairs(rng, 40, 120)
        seqs_a = [seqs[i] for i in pairs[:, 0]]
        seqs_b = [seqs[j] for j in pairs[:, 1]]
        ref = batch_smith_waterman(seqs_a, seqs_b, gap=gap)
        got = binned_scores(seqs, pairs, gap_model="linear", gap=gap)
        assert np.array_equal(ref, got)

    @pytest.mark.parametrize("gap_open,gap_extend",
                             [(11, 1), (1, 11), (0, 0), (5, 5)])
    def test_rowscan_affine_binned_matches_host(self, gap_open, gap_extend):
        rng = np.random.default_rng(5)
        seqs = random_seqs(rng, 40, len_max=70)
        pairs = random_pairs(rng, 40, 120)
        seqs_a = [seqs[i] for i in pairs[:, 0]]
        seqs_b = [seqs[j] for j in pairs[:, 1]]
        ref = batch_smith_waterman_affine(seqs_a, seqs_b,
                                          gap_open=gap_open,
                                          gap_extend=gap_extend)
        got = binned_scores(seqs, pairs, gap_model="affine",
                            gap_open=gap_open, gap_extend=gap_extend)
        assert np.array_equal(ref, got)

    def test_int32_escalation_matches_host(self):
        # gap > 512 disqualifies int16 (the shared dp_dtype rule), so this
        # exercises the int32 kernels end to end.
        rng = np.random.default_rng(6)
        seqs = random_seqs(rng, 20, len_max=50, allow_empty=False)
        pairs = random_pairs(rng, 20, 60)
        seqs_a = [seqs[i] for i in pairs[:, 0]]
        seqs_b = [seqs[j] for j in pairs[:, 1]]
        ref = batch_smith_waterman(seqs_a, seqs_b, gap=600)
        got = binned_scores(seqs, pairs, gap_model="linear", gap=600)
        assert bin_plan(seqs, pairs, (600,)).bins[0].dtype == np.int32
        assert np.array_equal(ref, got)

    def test_wide_bin_profile_rows_do_not_overflow(self):
        # 2,000 distinct long sequences put profile row ids past int16.
        rng = np.random.default_rng(9)
        seqs = random_seqs(rng, 2001, len_max=6, allow_empty=False)
        residues, offsets = flatten_sequences(seqs)
        short_ids = np.zeros(2000, dtype=np.int64)
        long_ids = np.arange(1, 2001)
        ml = max(seqs[i].size for i in long_ids)
        # uint8 residue codes, as the scorer packs them: 20 * 2000 would
        # wrap in the block's own dtype.
        packed = pack_bin_blocks(residues, offsets, short_ids, long_ids,
                                 seqs[0].size, ml)
        assert packed[0].dtype == np.uint8
        assert packed[1].shape[1] == 2000
        got = rowscan_linear_binned(*packed, BLOSUM62, 8, np.dtype(np.int16),
                                    ScratchPool())
        ref = batch_smith_waterman([seqs[0]] * 2000, seqs[1:])
        assert np.array_equal(got, ref)

    def test_direct_kernel_calls(self):
        # The kernel functions are usable standalone on a packed block.
        rng = np.random.default_rng(7)
        seqs = random_seqs(rng, 10, len_max=25, allow_empty=False)
        residues, offsets = flatten_sequences(seqs)
        ids = np.arange(10)
        lens = np.diff(offsets)
        order = np.argsort(lens, kind="stable")
        short_ids = long_ids = order
        ms = ml = int(lens.max())
        packed = pack_bin_blocks(residues.astype(np.int16), offsets,
                                 short_ids, long_ids, ms, ml)
        pool = ScratchPool()
        lin = rowscan_linear_binned(*packed, BLOSUM62, 8,
                                    np.dtype(np.int16), pool)
        aff = rowscan_affine_binned(*packed, BLOSUM62, 11, 1,
                                    np.dtype(np.int16), pool)
        ref_l = batch_smith_waterman([seqs[i] for i in order],
                                     [seqs[i] for i in order])
        ref_a = batch_smith_waterman_affine([seqs[i] for i in order],
                                            [seqs[i] for i in order])
        assert np.array_equal(lin, ref_l)
        assert np.array_equal(aff, ref_a)


#: Oracle edge-case sequences: empty and one-residue members next to a
#: 40-residue one, so length bins mix real cells with heavy padding.
EDGE_LENGTHS = [0, 0, 1, 1, 2, 3, 5, 8, 9, 12, 15, 20, 24, 30, 31, 40]

#: ``(gap_model, penalties, dtype)``: both gap models on int16, and on
#: int32 through a penalty past the int16 bound.
ORACLE_CASES = [
    ("linear", (8,), np.int16),
    ("linear", (600,), np.int32),
    ("affine", (11, 1), np.int16),
    ("affine", (600, 2), np.int32),
]


class TestProfileKernelOracles:
    """The profile kernels, called directly on packed bins, against the
    scalar Smith-Waterman oracles pair by pair."""

    def packed_bins(self, penalties, min_pairs=2):
        rng = np.random.default_rng(21)
        seqs = [rng.integers(0, 21, size=n).astype(np.uint8)
                for n in EDGE_LENGTHS]
        n = len(seqs)
        pairs = np.array([(i, j) for i in range(n) for j in range(i, n)],
                         dtype=np.int64)
        residues, offsets = flatten_sequences(seqs)
        lens = np.diff(offsets)
        plan, short_ids, long_ids = binned_mod._plan_bins(
            pairs, lens, BLOSUM62, penalties, max_pairs=24, max_waste=0.25,
            min_pairs=min_pairs)
        for b in plan.bins:
            members = plan.order[b.order_lo:b.order_hi]
            packed = pack_bin_blocks(residues, offsets, short_ids[members],
                                     long_ids[members], b.max_short,
                                     b.max_long)
            yield b, packed, [(seqs[short_ids[m]], seqs[long_ids[m]])
                              for m in members]

    def kernel(self, gap_model, penalties, packed, dtype, pool):
        if gap_model == "linear":
            return rowscan_linear_binned(*packed, BLOSUM62, *penalties,
                                         dtype, pool)
        return rowscan_affine_binned(*packed, BLOSUM62, *penalties, dtype,
                                     pool)

    def oracle(self, gap_model, penalties, a, b):
        if gap_model == "linear":
            return sw_score_linear(a, b, BLOSUM62, *penalties)
        return sw_score_affine(a, b, BLOSUM62, *penalties)

    @pytest.mark.parametrize("gap_model,penalties,dtype", ORACLE_CASES)
    def test_edge_bins_match_scalar_oracle(self, gap_model, penalties,
                                           dtype):
        pool = ScratchPool()
        shortest, wastes = set(), []
        for b, packed, members in self.packed_bins(penalties):
            assert b.dtype == dtype
            got = self.kernel(gap_model, penalties, packed, b.dtype, pool)
            for score, (a, bb) in zip(got, members):
                assert score == self.oracle(gap_model, penalties, a, bb)
                shortest.add(a.size)
            wastes.append(b.padding_waste)
        # The bins really held the edge cases: empty and one-residue
        # members, and padding close to the planner's 25% cap (bins at or
        # under min_pairs may go past it).
        assert {0, 1} <= shortest
        assert any(0.15 < w <= 0.25 for w in wastes)
        assert max(wastes) > 0.25

    @pytest.mark.parametrize("gap_model,penalties,dtype", ORACLE_CASES)
    def test_profile_budget_caps_bins(self, monkeypatch, gap_model,
                                      penalties, dtype):
        # A profile budget of three 40-residue columns: the planner cuts
        # every wide bin down so its profile fits, and scores still match.
        budget = 3 * 22 * 40 * np.dtype(dtype).itemsize
        monkeypatch.setattr(binned_mod, "PROFILE_BYTES", budget)
        pool = ScratchPool()
        widths = []
        for b, packed, members in self.packed_bins(penalties):
            assert b.n_pairs == 1 or \
                22 * b.n_pairs * b.max_long * b.dtype.itemsize <= budget
            widths.append(b.n_pairs)
            got = self.kernel(gap_model, penalties, packed, b.dtype, pool)
            expect = [self.oracle(gap_model, penalties, a, bb)
                      for a, bb in members]
            assert got.tolist() == expect
        assert max(widths) > 3      # short bins still fill past the cap's
                                    # 40-residue width

    @pytest.mark.parametrize("gap_model,penalties,dtype", ORACLE_CASES)
    def test_in_process_scorer_matches_scalar_oracle(self, gap_model,
                                                     penalties, dtype):
        seqs = [np.random.default_rng(22).integers(0, 21, size=n)
                .astype(np.uint8) for n in EDGE_LENGTHS]
        residues, offsets = flatten_sequences(seqs)
        pairs = np.array([(j, i) for i in range(len(seqs))
                          for j in range(i, len(seqs))], dtype=np.int64)
        kw = ({"gap": penalties[0]} if gap_model == "linear" else
              {"gap_open": penalties[0], "gap_extend": penalties[1]})
        got = score_pairs_binned(residues, offsets, pairs,
                                 gap_model=gap_model, **kw)
        expect = [self.oracle(gap_model, penalties, seqs[i], seqs[j])
                  for i, j in pairs]
        assert got.tolist() == expect
        assert score_pairs_binned(residues, offsets,
                                  np.empty((0, 2))).size == 0

    @pytest.mark.parametrize("lb", [1, 2, 33, 64, 65])
    @pytest.mark.parametrize("gap_model,penalties",
                             [("linear", (8,)), ("affine", (11, 1))])
    def test_scan_edge_widths_match_scalar_oracle(self, lb, gap_model,
                                                  penalties):
        # Every long sequence is exactly ``lb`` residues, so every bin's
        # prefix max runs over ``lb`` rows: one row (no pass), two, and
        # either side of a power of two.
        rng = np.random.default_rng(lb)
        longs = [rng.integers(0, 21, size=lb).astype(np.uint8)
                 for _ in range(3)]
        # One long sequence is a family member of the first, so some
        # alignments run long and their left gaps matter.
        longs[1][::3] = longs[0][::3]
        shorts = [longs[0][:n].copy() for n in sorted({0, 1, lb // 2, lb})]
        shorts.append(rng.integers(0, 21, size=max(lb - 1, 1))
                      .astype(np.uint8))
        seqs = longs + shorts
        pairs = np.array([(s, l) for s in range(len(seqs))
                          for l in range(3)], dtype=np.int64)
        expect = [self.oracle(gap_model, penalties, seqs[i], seqs[j])
                  for i, j in pairs]
        assert max(expect) > 0
        kw = ({"gap": penalties[0]} if gap_model == "linear" else
              {"gap_open": penalties[0], "gap_extend": penalties[1]})
        seqs_a = [seqs[i] for i in pairs[:, 0]]
        seqs_b = [seqs[j] for j in pairs[:, 1]]
        host = (batch_smith_waterman if gap_model == "linear" else
                batch_smith_waterman_affine)(seqs_a, seqs_b, **kw)
        assert host.tolist() == expect
        assert binned_scores(seqs, pairs, gap_model=gap_model,
                             **kw).tolist() == expect
        assert {b.max_long for b in bin_plan(seqs, pairs, penalties).bins} \
            == {lb}

    @pytest.mark.parametrize("gap_model,penalties",
                             [("linear", (8,)), ("affine", (11, 1))])
    def test_bins_in_one_row_bucket_share_state_buffers(self, gap_model,
                                                        penalties):
        # Two bins of the same width and short length whose long lengths
        # differ but round up to the same ROW_BUCKET multiple (and whose
        # query profiles, 22 * 4 * lb cells, round up to one power of
        # two): the second bin takes every buffer from the pool.
        rng = np.random.default_rng(23)
        lbs = (ROW_BUCKET + 1, ROW_BUCKET + 14)
        seqs = [rng.integers(0, 21, size=n).astype(np.uint8)
                for n in (20,) * 8 + (lbs[0],) * 4 + (lbs[1],) * 4]
        residues, offsets = flatten_sequences(seqs)
        short_ids = np.arange(8)
        pool = ScratchPool()
        counts = []
        for first_long, lb in zip((8, 12), lbs):
            long_ids = first_long + np.arange(8) % 4
            packed = pack_bin_blocks(residues, offsets, short_ids,
                                     long_ids, 20, lb)
            assert packed[1].shape == (lb, 4)
            got = self.kernel(gap_model, penalties, packed,
                              np.dtype(np.int16), pool)
            assert got.tolist() == [
                self.oracle(gap_model, penalties, seqs[i], seqs[j])
                for i, j in zip(short_ids, long_ids)]
            counts.append((pool.n_allocations, pool.bytes_allocated))
        assert counts[1] == counts[0]
        assert pool.n_reuses == counts[0][0]


# --------------------------------------------------------------------- #
# The public scorer
# --------------------------------------------------------------------- #

class TestDeviceAligner:
    """:func:`score_pairs_binned`, the public batched scorer: input checks,
    plan metrics and scratch reuse (the class keeps the name of the device
    facade it replaced)."""

    def make(self):
        rng = np.random.default_rng(8)
        seqs = random_seqs(rng, 50, len_max=60)
        pairs = random_pairs(rng, 50, 300)
        residues, offsets = flatten_sequences(seqs)
        return residues, offsets, seqs, pairs

    def test_rejects_unknown_gap_model(self):
        residues, offsets, _, pairs = self.make()
        # Case matters: "Affine" must not fall through to linear gaps.
        for gap_model in ("convex", "Affine", "banded"):
            with pytest.raises(ValueError, match="gap_model"):
                score_pairs_binned(residues, offsets, pairs,
                                   gap_model=gap_model)

    @pytest.mark.parametrize("gap_model,penalty", [
        ("linear", {"gap": -3}), ("affine", {"gap_open": -2}),
        ("affine", {"gap_extend": -1})])
    def test_rejects_negative_gap_penalties(self, gap_model, penalty):
        # A negative penalty would reward gaps: scores could pass the
        # self-score a normalized score is divided by.
        residues, offsets, _, pairs = self.make()
        with pytest.raises(ValueError, match="gap penalties"):
            score_pairs_binned(residues, offsets, pairs,
                               gap_model=gap_model, **penalty)

    @pytest.mark.parametrize("bad", [[[0, -1]], [[-3, 2]], [[0, 50]],
                                     [[50, 49]]])
    def test_rejects_pair_ids_out_of_range(self, bad):
        residues, offsets, _, pairs = self.make()
        with pytest.raises(ValueError, match="pair ids"):
            score_pairs_binned(residues, offsets,
                               np.concatenate([pairs, bad]))
        # The last valid id still scores.
        assert score_pairs_binned(residues, offsets, [[0, 49]]).shape == (1,)

    def test_empty_pairs(self):
        residues, offsets, seqs, _ = self.make()
        out = score_pairs_binned(residues, offsets,
                                 np.empty((0, 2), dtype=np.int64))
        assert out.size == 0
        assert bin_plan(seqs, np.empty((0, 2))).n_bins == 0

    def test_padding_metrics_recorded(self):
        residues, offsets, seqs, pairs = self.make()
        ctx = observe(trace=False)
        with use_obs(ctx):
            score_pairs_binned(residues, offsets, pairs)
        snap = ctx.metrics.snapshot()
        counters = snap["counters"]
        padded = counters["device.align.cells_padded"]
        actual = counters["device.align.cells_actual"]
        plan = bin_plan(seqs, pairs)
        assert (actual, padded) == (plan.actual_cells, plan.padded_cells)
        assert 0 < actual <= padded
        waste = snap["gauges"]["device.align.padding_waste"]
        assert waste == pytest.approx(1.0 - actual / padded, abs=1e-5)
        assert counters["device.align.pairs"] == pairs.shape[0]
        assert counters["device.align.bins"] == plan.n_bins

    def test_scratch_pool_reused_across_calls(self, monkeypatch):
        residues, offsets, seqs, pairs = self.make()
        pool = ScratchPool()
        score_pairs_binned(residues, offsets, pairs, pool=pool)
        allocs = pool.n_allocations
        taken = []
        take = pool.take

        def spy(shape, dtype=np.uint64):
            taken.append((shape, np.dtype(dtype)))
            return take(shape, dtype)

        monkeypatch.setattr(pool, "take", spy)
        # Same geometry: zero fresh allocations.
        score_pairs_binned(residues, offsets, pairs, pool=pool)
        assert pool.n_allocations == allocs
        assert pool.n_reuses > 0
        # The query profiles (flat blocks) came out of the pool too.
        profiles = [s for s, dt in taken if len(s) == 1 and dt == np.int16]
        assert len(profiles) == bin_plan(seqs, pairs).n_bins

    def test_waste_respects_planner_cap_on_family_data(self):
        from repro.sequence.generator import generate_protein_families

        ps = generate_protein_families(seed=11)
        rng = np.random.default_rng(12)
        pairs = random_pairs(rng, len(ps.sequences), 2000)
        assert bin_plan(ps.sequences, pairs).padding_waste < 0.25


# --------------------------------------------------------------------- #
# Backend rule
# --------------------------------------------------------------------- #

#: Effective pool workers per ``(n_jobs, cpu_count)``: ``n_jobs`` (0 = all
#: cores) capped by the machine's cores.
_WORKERS = {(0, 1): 1, (0, 2): 2, (0, 8): 8,
            (1, 1): 1, (1, 2): 1, (1, 8): 1,
            (2, 1): 1, (2, 2): 2, (2, 8): 2,
            (4, 1): 1, (4, 2): 2, (4, 8): 4}


class TestScheduler:
    @pytest.mark.parametrize("n_jobs,cores", sorted(_WORKERS))
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_auto_rule_table(self, monkeypatch, n_jobs, cores, offset):
        """Pool iff more than one effective worker and at least
        ``MIN_POOL_PAIRS_PER_WORKER`` pairs each; local otherwise."""
        monkeypatch.setattr(homology_mod.os, "cpu_count", lambda: cores)
        workers = _WORKERS[n_jobs, cores]
        n_pairs = MIN_POOL_PAIRS_PER_WORKER * max(workers, 2) + offset
        expected = "pool" if workers > 1 and offset >= 0 else "local"
        assert choose_align_backend("auto", n_pairs, n_jobs) == expected

    def test_explicit_backends_honored(self, monkeypatch):
        monkeypatch.setattr(homology_mod.os, "cpu_count", lambda: 8)
        for n_pairs in (0, 10, 10**6):
            for n_jobs in (0, 1, 4):
                assert choose_align_backend("host", n_pairs, n_jobs) == "host"

    def test_rejects_unknown_backend(self):
        for backend in ("gpu", "pool", "device", "local"):
            with pytest.raises(ValueError, match="align_backend"):
                choose_align_backend(backend, 10, 1)

    def test_auto_small_workload_never_spawns_pool(self, monkeypatch):
        # The small-workload parallel regression: --jobs 0 on a many-core
        # machine must not fork for a few hundred pairs.
        monkeypatch.setattr(homology_mod.os, "cpu_count", lambda: 8)
        assert choose_align_backend("auto", 500, 0) == "local"

    def test_auto_large_workload_may_pool(self, monkeypatch):
        monkeypatch.setattr(homology_mod.os, "cpu_count", lambda: 8)
        assert choose_align_backend("auto", 100_000, 0) == "pool"

    def test_auto_never_pools_below_spawn_amortization(self, monkeypatch):
        # Enough pairs for four workers is not enough for eight: the
        # floor is per worker, so a wider pool needs a bigger workload.
        monkeypatch.setattr(homology_mod.os, "cpu_count", lambda: 8)
        n_pairs = 4 * MIN_POOL_PAIRS_PER_WORKER
        assert choose_align_backend("auto", n_pairs, 4) == "pool"
        assert choose_align_backend("auto", n_pairs, 0) == "local"

    def test_config_validates_backend(self):
        for backend in ("gpu", "pool", "device", "local"):
            with pytest.raises(ValueError, match="align_backend"):
                HomologyConfig(align_backend=backend)
        assert HomologyConfig(align_backend="host").align_backend == "host"


class TestHomologyBackends:
    """``auto``'s backends against the host oracle.  The ``device_backend``
    tests cover the ``local`` backend, which replaced the device offload
    under the same rule."""

    @pytest.fixture()
    def small_set(self):
        from repro.sequence.generator import generate_protein_families

        return generate_protein_families(seed=13).sequences

    @pytest.mark.parametrize("gap_model", ["linear", "affine"])
    def test_device_backend_bit_identical(self, small_set, gap_model):
        base = HomologyConfig(gap_model=gap_model)
        ref = build_homology_graph(
            small_set, dataclasses.replace(base, align_backend="host"))
        got = build_homology_graph(small_set, base)
        assert got.align_backend == "local"
        assert ref.align_backend == "host"
        assert got.n_edges == ref.n_edges
        assert np.array_equal(got.graph.indptr, ref.graph.indptr)
        assert np.array_equal(got.graph.indices, ref.graph.indices)
        assert np.array_equal(got.normalized_scores, ref.normalized_scores)

    def test_device_backend_keep_scores_false(self, small_set):
        cfg = HomologyConfig()
        ref = build_homology_graph(small_set, cfg)
        got = build_homology_graph(small_set, cfg, keep_scores=False)
        assert ref.align_backend == got.align_backend == "local"
        assert got.n_edges == ref.n_edges
        assert got.normalized_scores.size == 0
        assert got.pairs.size == 0

    def test_auto_small_scale_matches_serial_choice(self, small_set,
                                                    monkeypatch):
        # Regression pin: auto with --jobs 0 on a small workload must
        # resolve to local scoring, never the pool, and produce the serial
        # result.
        monkeypatch.setattr(homology_mod.os, "cpu_count", lambda: 8)
        ref = build_homology_graph(
            small_set, HomologyConfig(align_backend="host"))
        got = build_homology_graph(
            small_set, HomologyConfig(align_backend="auto", n_jobs=0))
        assert got.align_backend == "local"
        assert got.n_edges == ref.n_edges
        assert np.array_equal(got.normalized_scores, ref.normalized_scores)

    def test_pool_sized_by_capped_workers(self, small_set, monkeypatch):
        """``n_jobs`` above the core count sizes the pool and its shards
        from the cores: 8 jobs on 2 cores start at most 2 workers."""
        seen = {}

        class Stop(Exception):
            pass

        class RecordingPool:
            def __init__(self, *, max_workers, **kwargs):
                seen["max_workers"] = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                seen["n_shards"] = len(list(tasks))
                raise Stop  # no process ever starts

        monkeypatch.setattr(homology_mod.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(homology_mod, "MIN_POOL_PAIRS_PER_WORKER", 0)
        monkeypatch.setattr(homology_mod, "ProcessPoolExecutor",
                            RecordingPool)
        ctx = observe()
        with use_obs(ctx), pytest.raises(Stop):
            build_homology_graph(small_set, HomologyConfig(n_jobs=8,
                                                           chunk_size=8))
        assert seen["max_workers"] <= 2
        assert seen["n_shards"] <= 2 * 4
        (stage,) = [r for r in ctx.tracer.records
                    if r.name == "homology.alignment"]
        assert stage.attrs["n_jobs"] == 2


    @pytest.mark.parametrize("gap_model", ["linear", "affine"])
    def test_pool_workers_run_binned_kernels(self, small_set, monkeypatch,
                                             gap_model):
        base = HomologyConfig(gap_model=gap_model)
        ref = build_homology_graph(
            small_set, dataclasses.replace(base, align_backend="host"))

        def host_kernel(*args, **kwargs):
            raise AssertionError("pool worker ran the host row scan")

        # Forked workers inherit the patch, so a shard scored on the host
        # kernels would fail the build.
        monkeypatch.setattr(homology_mod, "batch_smith_waterman",
                            host_kernel)
        monkeypatch.setattr(homology_mod, "batch_smith_waterman_affine",
                            host_kernel)
        with pool_alignment():
            got = build_homology_graph(
                small_set, dataclasses.replace(base, n_jobs=2))
        assert got.align_backend == "pool"
        assert np.array_equal(got.graph.indices, ref.graph.indices)
        assert np.array_equal(got.normalized_scores, ref.normalized_scores)


# --------------------------------------------------------------------- #
# Property test: backend x gap model x dtype x bin edges x keep_scores
# --------------------------------------------------------------------- #

class TestBackendIdentityProperties:
    @given(seed=st.integers(0, 10_000),
           gap_model=st.sampled_from(["linear", "affine"]),
           escalate=st.booleans(),
           max_pairs=st.sampled_from([3, 17, 64, 384]),
           keep_scores=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_device_equals_host_everywhere(self, seed, gap_model, escalate,
                                           max_pairs, keep_scores):
        """Scores and edges are bit-identical between host and the binned
        ``local`` backend for any gap model, DP dtype (``escalate`` drives
        penalties past the int16 bound), bin-edge choice, and
        score-retention mode."""
        rng = np.random.default_rng(seed)
        seqs = random_seqs(rng, int(rng.integers(3, 25)), len_max=50)
        if gap_model == "linear":
            penalties = {"gap": 700 if escalate else 8}
        else:
            penalties = {"gap_open": 700 if escalate else 11,
                         "gap_extend": 1}
        cfg = HomologyConfig(gap_model=gap_model, align_backend="host",
                             **penalties)
        ref = build_homology_graph(seqs, cfg, keep_scores=keep_scores)

        local_cfg = dataclasses.replace(cfg, align_backend="auto")
        # Route the build through a planner with the sampled bin edges.
        orig_plan = binned_mod._plan_bins

        def patched_plan(pairs, lengths, matrix, penalties, **kw):
            return orig_plan(pairs, lengths, matrix, penalties,
                             max_pairs=max_pairs, min_pairs=min(2, max_pairs))

        binned_mod._plan_bins = patched_plan
        try:
            got = build_homology_graph(seqs, local_cfg,
                                       keep_scores=keep_scores)
        finally:
            binned_mod._plan_bins = orig_plan
        assert got.align_backend == ("local" if got.n_candidate_pairs
                                     else None)
        assert got.n_edges == ref.n_edges
        assert np.array_equal(got.graph.indptr, ref.graph.indptr)
        assert np.array_equal(got.graph.indices, ref.graph.indices)
        assert np.array_equal(got.normalized_scores, ref.normalized_scores)
