"""Tests for Smith-Waterman (all three implementations) and the k-mer filter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequence.alphabet import AMINO_ACIDS, encode
from repro.sequence.kmer_filter import (
    _concatenated_kmer_index,
    candidate_pairs,
    dedupe_count_pairs,
    kmer_codes,
)
from repro.sequence.scoring import BLOSUM62
from repro.sequence.smith_waterman import (
    batch_smith_waterman,
    self_score,
    sw_align,
    sw_score_affine,
    sw_score_linear,
)

seq_strategy = st.text(alphabet=AMINO_ACIDS, min_size=0, max_size=40)


class TestScalarSW:
    def test_identical_sequences(self):
        s = encode("HEAGAWGHEE")
        assert sw_score_linear(s, s) == self_score(s)

    def test_empty_sequence(self):
        assert sw_score_linear(encode(""), encode("ACD")) == 0

    def test_disjoint_alphabet_segments_score_low(self):
        a = encode("WWWWW")
        b = encode("PPPPP")
        assert sw_score_linear(a, b) == 0  # W-P scores -4, local => 0

    def test_symmetry(self):
        a, b = encode("ACDEFGHIKL"), encode("ACDWWGHIKL")
        assert sw_score_linear(a, b) == sw_score_linear(b, a)

    def test_local_alignment_ignores_flanks(self):
        core = "HEAGAWGHE"
        a = encode("PPPP" + core)
        b = encode(core + "GGGG")
        assert sw_score_linear(a, b) >= sw_score_linear(encode(core), encode(core)) - 8

    def test_gap_penalty_monotonicity(self):
        a = encode("ACDEFGHIKLMNP")
        b = encode("ACDEFGIKLMNP")  # one deletion
        assert sw_score_linear(a, b, gap=4) >= sw_score_linear(a, b, gap=12)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            sw_score_linear(encode("A"), encode("A"), gap=-1)


class TestAffineSW:
    def test_identical(self):
        s = encode("ACDEFGHIKLMNPQRSTVWY")
        assert sw_score_affine(s, s) == self_score(s)

    def test_affine_beats_linear_on_long_gap(self):
        a = encode("ACDEFGHIKLMNPQRSTVWY")
        b = encode("ACDEFGHIK" + "LMNPQRSTVWY")  # same; now insert a long gap
        b = encode("ACDEFGHIKWWWWWWWWLMNPQRSTVWY")
        affine = sw_score_affine(a, b, gap_open=11, gap_extend=1)
        linear = sw_score_linear(a, b, gap=8)
        assert affine >= linear  # one long gap is cheap under affine

    def test_invalid_penalties(self):
        with pytest.raises(ValueError):
            sw_score_affine(encode("A"), encode("A"), gap_open=-1)

    def test_affine_equals_linear_when_open_equals_extend(self):
        a, b = encode("HEAGAWGHEE"), encode("PAWHEAE")
        assert (sw_score_affine(a, b, gap_open=8, gap_extend=8)
                == sw_score_linear(a, b, gap=8))


class TestSwAlign:
    def test_score_matches_scalar(self):
        a, b = encode("HEAGAWGHEE"), encode("PAWHEAE")
        score, path = sw_align(a, b)
        assert score == sw_score_linear(a, b)
        assert path  # non-empty for homologous strings

    def test_path_is_strictly_increasing(self):
        a, b = encode("ACDEFGHIKLM"), encode("ACDFGHIKLM")
        _, path = sw_align(a, b)
        for (i1, j1), (i2, j2) in zip(path, path[1:]):
            assert i2 > i1 and j2 > j1

    def test_path_indices_valid(self):
        a, b = encode("WYVA"), encode("AWYV")
        _, path = sw_align(a, b)
        for i, j in path:
            assert 0 <= i < len(a) and 0 <= j < len(b)

    def test_empty(self):
        assert sw_align(encode(""), encode("ACD")) == (0, [])


class TestBatchSW:
    @given(st.lists(st.tuples(seq_strategy, seq_strategy), min_size=1,
                    max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_property(self, string_pairs):
        seqs_a = [encode(a) for a, _ in string_pairs]
        seqs_b = [encode(b) for _, b in string_pairs]
        batch = batch_smith_waterman(seqs_a, seqs_b, gap=8, chunk_size=5)
        scalar = [sw_score_linear(a, b, gap=8) for a, b in zip(seqs_a, seqs_b)]
        assert list(batch) == scalar

    def test_chunking_invariance(self, rng):
        seqs_a = [rng.integers(0, 20, size=rng.integers(3, 50)).astype(np.uint8)
                  for _ in range(20)]
        seqs_b = [rng.integers(0, 20, size=rng.integers(3, 50)).astype(np.uint8)
                  for _ in range(20)]
        s1 = batch_smith_waterman(seqs_a, seqs_b, chunk_size=1)
        s2 = batch_smith_waterman(seqs_a, seqs_b, chunk_size=64)
        assert np.array_equal(s1, s2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            batch_smith_waterman([encode("A")], [])

    def test_custom_gap(self):
        a, b = encode("ACDEFGHIKL"), encode("ACDGHIKL")
        out = batch_smith_waterman([a], [b], gap=2)
        assert out[0] == sw_score_linear(a, b, gap=2)


class TestKmerFilter:
    def test_kmer_codes_basic(self):
        seq = encode("ACDAC")
        codes = kmer_codes(seq, 3)
        assert codes.size == 3
        # "ACD" appears at position 0; check uniqueness structure
        assert kmer_codes(encode("ACD"), 3)[0] == codes[0]

    def test_kmer_codes_short_sequence(self):
        assert kmer_codes(encode("AC"), 3).size == 0

    def test_kmer_k_too_large(self):
        with pytest.raises(ValueError):
            kmer_codes(encode("ACDEFGHIKLMNPQRSTVWY"), 15)

    def test_identical_sequences_are_candidates(self):
        s = encode("ACDEFGHIKLMNP")
        pairs = candidate_pairs([s, s.copy(), encode("WWWWWYYYYY")], k=4)
        assert [tuple(p) for p in pairs.tolist()] == [(0, 1)]

    def test_min_shared_raises_bar(self):
        a = encode("ACDEFGHIKL")
        b = encode("ACDEFWWWWW")  # shares k-mers only in the ACDEF prefix
        assert candidate_pairs([a, b], k=4, min_shared=1).shape[0] == 1
        assert candidate_pairs([a, b], k=4, min_shared=5).shape[0] == 0

    def test_low_complexity_filter(self):
        seqs = [encode("AAAAAAAAAA") for _ in range(10)]
        pairs = candidate_pairs(seqs, k=4, max_kmer_occurrence=5)
        assert pairs.shape[0] == 0

    def test_no_self_pairs(self):
        s = encode("ACDACDACD")  # repeated k-mers within one sequence
        pairs = candidate_pairs([s], k=3)
        assert pairs.shape[0] == 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            candidate_pairs([], k=4, min_shared=0)
        with pytest.raises(ValueError):
            candidate_pairs([], k=4, max_kmer_occurrence=1)

    def test_pairs_sorted_unique(self, rng):
        seqs = [rng.integers(0, 4, size=30).astype(np.uint8) for _ in range(8)]
        pairs = candidate_pairs(seqs, k=3, max_kmer_occurrence=8)
        assert np.all(pairs[:, 0] < pairs[:, 1])
        keys = pairs[:, 0] * 8 + pairs[:, 1]
        assert np.unique(keys).size == keys.size

    @pytest.mark.parametrize("seed", range(6))
    def test_candidate_pairs_match_bruteforce(self, seed):
        """The seed-group expansion and shared-count threshold agree with
        pairwise k-mer set intersection."""
        rng = np.random.default_rng(seed)
        k, min_shared, max_occ = 3, 3, 4
        seqs = [rng.integers(0, 4, size=int(rng.integers(0, 40)))
                .astype(np.uint8) for _ in range(int(rng.integers(2, 14)))]
        sets = [set(kmer_codes(s, k).tolist()) for s in seqs]
        occurrence = {}
        for kmers in sets:
            for code in kmers:
                occurrence[code] = occurrence.get(code, 0) + 1
        expect = [(i, j) for i in range(len(seqs))
                  for j in range(i + 1, len(seqs))
                  if sum(occurrence[c] <= max_occ
                         for c in sets[i] & sets[j]) >= min_shared]
        got = candidate_pairs(seqs, k=k, min_shared=min_shared,
                              max_kmer_occurrence=max_occ)
        assert [tuple(p) for p in got.tolist()] == expect

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30),
           st.integers(0, 200), st.integers(1, 4))
    def test_dedupe_count_pairs_matches_unique(self, seed, n, n_pairs,
                                               min_count):
        """Rows and their order equal ``np.unique(..., return_counts=True)``
        over the packed keys, filtered by ``min_count``."""
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, n, (n_pairs, 2)).astype(np.int64)
        keys, counts = np.unique(pairs[:, 0] * n + pairs[:, 1],
                                 return_counts=True)
        keys = keys[counts >= min_count]
        want = np.stack([keys // n, keys % n], axis=1)
        got = dedupe_count_pairs(pairs, n, min_count)
        assert got.shape == (keys.size, 2)
        assert np.array_equal(got, want)

    # k = 14 with 2 sequences keeps the packed code * n_seq + owner key
    # just under 63 bits; with 3 it would pass them, so the index falls
    # back to the two-key lexsort.
    @pytest.mark.parametrize("k,n_seq", [(1, 5), (3, 9), (5, 40), (14, 2),
                                         (14, 3)])
    def test_kmer_index_matches_per_sequence_sets(self, rng, monkeypatch,
                                                  k, n_seq):
        seqs = [rng.integers(0, 4 if k < 5 else 21,
                             size=int(rng.integers(0, 60))).astype(np.uint8)
                for _ in range(n_seq)]
        expect = sorted({(int(c), o) for o, s in enumerate(seqs)
                         for c in kmer_codes(s, k)})
        lexsorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort",
                            lambda keys: lexsorts.append(1) or lexsort(keys))
        codes, owners = _concatenated_kmer_index(seqs, k)
        assert codes.dtype == owners.dtype == np.int64
        assert list(zip(codes.tolist(), owners.tolist())) == expect
        assert bool(lexsorts) == (k == 14 and n_seq == 3)
