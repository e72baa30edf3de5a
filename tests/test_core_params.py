"""Tests for ShinglingParams / PassConfig."""

import numpy as np
import pytest

from repro.core.params import PassConfig, ShinglingParams


class TestShinglingParams:
    def test_paper_defaults(self):
        p = ShinglingParams()
        assert (p.s1, p.c1, p.s2, p.c2) == (2, 200, 2, 100)
        assert p.report_mode == "partition"

    @pytest.mark.parametrize("kw", [
        {"s1": 0}, {"s2": 0}, {"c1": 0}, {"c2": 0}, {"trial_chunk": 0},
        {"prime": 100}, {"prime": (1 << 40) + 1},
        {"kernel": "bubble"}, {"report_mode": "fuzzy"},
        {"streams": 0}, {"kernel": "select"},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            ShinglingParams(**kw)

    @pytest.mark.parametrize("kw", [{"include_generators": True},
                                    {"union_backend": "unionfind"}])
    def test_retired_fields_rejected(self, kw):
        """Generator recruitment and the union-engine choice are gone."""
        with pytest.raises(TypeError):
            ShinglingParams(**kw)

    def test_with_overrides(self):
        p = ShinglingParams().with_overrides(c1=10)
        assert p.c1 == 10
        assert p.c2 == 100

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ShinglingParams().s1 = 3


class TestPassConfig:
    def test_pass_sizes(self):
        p = ShinglingParams(s1=3, c1=7, s2=2, c2=5, seed=1)
        cfg1, cfg2 = p.pass_config(1), p.pass_config(2)
        assert (cfg1.s, cfg1.c) == (3, 7)
        assert (cfg2.s, cfg2.c) == (2, 5)
        assert len(cfg1.hash_pairs) == 7
        assert cfg1.salts.shape == (7,)

    def test_passes_use_independent_hash_families(self):
        p = ShinglingParams(c1=5, c2=5, seed=1)
        pairs1 = {(h.a, h.b) for h in p.pass_config(1).hash_pairs}
        pairs2 = {(h.a, h.b) for h in p.pass_config(2).hash_pairs}
        assert pairs1 != pairs2

    def test_deterministic_per_seed(self):
        a = ShinglingParams(seed=3, c1=4).pass_config(1)
        b = ShinglingParams(seed=3, c1=4).pass_config(1)
        assert a.hash_pairs == b.hash_pairs
        assert np.array_equal(a.salts, b.salts)

    def test_different_seeds_differ(self):
        a = ShinglingParams(seed=3, c1=4).pass_config(1)
        b = ShinglingParams(seed=4, c1=4).pass_config(1)
        assert a.hash_pairs != b.hash_pairs

    def test_invalid_pass_id(self):
        with pytest.raises(ValueError):
            ShinglingParams().pass_config(3)

    def test_coefficient_arrays(self):
        cfg = ShinglingParams(c1=3).pass_config(1)
        assert np.array_equal(cfg.a_array,
                              np.array([h.a for h in cfg.hash_pairs], dtype=np.uint64))
        assert np.array_equal(cfg.b_array,
                              np.array([h.b for h in cfg.hash_pairs], dtype=np.uint64))

    def test_coefficient_arrays_built_once_read_only(self):
        cfg = ShinglingParams(c1=3).pass_config(1)
        assert cfg.a_array is cfg.a_array and cfg.b_array is cfg.b_array
        for array in (cfg.a_array, cfg.b_array):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
