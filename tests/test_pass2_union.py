"""Partition mode feeds pass II straight into the Phase III union.

With a single pass-II batch, ``GpClust`` never builds ``G_II``, whichever
kernel runs: :func:`device_union_pass` folds every trial chunk's
occurrence slots into a running root-label array.  Its labels must equal
``SerialPClust``'s under every schedule, stream count and kernel — whether
the pipeline provisions its own device, the caller hands one in, or the
one-call API runs it — and every case that still needs ``G_II`` (several
pass-II batches, overlapping mode) must fall back to it and match too.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import pipeline
from repro.core.device_exec import device_shingle_pass, device_union_pass
from repro.core.params import ShinglingParams
from repro.core.pipeline import GpClust, SerialPClust
from repro.core.report import PartitionFold
from repro.core.serial import serial_shingle_pass
from repro.device import kernels
from repro.device.device import SimulatedDevice
from repro.graph.unionfind import union_edge_keys
from repro.obs import get_obs, observe, use_obs
from repro.synthdata.planted import PlantedFamilyConfig, planted_family_graph
from repro.util.timer import TimeBreakdown
from tests.conftest import (cluster_via, disjoint_cliques,
                            random_blocky_graph, schedule)

BASE = ShinglingParams(s1=2, c1=10, s2=2, c2=7, trial_chunk=3, seed=5)


@pytest.fixture(scope="module")
def planted():
    return planted_family_graph(PlantedFamilyConfig(n_families=6), seed=3).graph


@pytest.fixture
def direct_calls(monkeypatch):
    """Whether each run's pass II took the direct path."""
    taken = []
    real = pipeline.device_union_pass

    def spy(*args, **kwargs):
        fold = real(*args, **kwargs)
        taken.append(fold is not None)
        return fold

    monkeypatch.setattr(pipeline, "device_union_pass", spy)
    return taken


def _pass1(graph, params):
    return serial_shingle_pass(graph.indptr, graph.indices,
                               params.pass_config(1))


@pytest.mark.parametrize("via", ["host", "device", "auto"])
@pytest.mark.parametrize("exec_mode,streams", [
    ("sync", 1), ("prefetch", 1), ("multistream", 3)])
def test_direct_path_matches_serial(planted, direct_calls, exec_mode, streams,
                                    via):
    params, spec = schedule(exec_mode, BASE)
    assert params.streams == streams
    want = SerialPClust(params).run(planted).labels
    got = cluster_via(via, planted, params, spec).labels
    assert direct_calls == [True]
    assert np.array_equal(got, want)
    assert np.unique(got).size > 1


@pytest.mark.parametrize("streams", [1, 2, 5])
def test_direct_path_streams(planted, direct_calls, streams):
    """A caller's device at 1, 2 and 5 streams."""
    params = BASE.with_overrides(streams=streams)
    want = SerialPClust(params).run(planted).labels
    got = GpClust(params).run(planted, device=SimulatedDevice()).labels
    assert direct_calls == [True]
    assert np.array_equal(got, want)


def test_direct_path_trace(planted):
    """pass II holds union folds and no G_II aggregation spans."""
    ctx = observe()
    with use_obs(ctx):
        GpClust(BASE).run(planted)
    records = ctx.tracer.records
    (pass2,) = [r for r in records if r.name == "gpclust.pass2"]
    assert pass2.attrs["direct"] is True
    inside = [r.name for r in records
              if pass2.start <= r.start and r.end <= pass2.end]
    assert "phase3.union" in inside
    assert "exec.chunk_aggregate" not in inside
    assert "exec.merge_partials" not in inside


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), s1=st.integers(1, 3),
       s2=st.integers(1, 3), c1=st.integers(1, 8), c2=st.integers(1, 10),
       trial_chunk=st.integers(1, 4),
       kernel=st.sampled_from(["fused", "sort"]),
       streams=st.sampled_from([1, 2]))
def test_random_graphs_match_serial(seed, s1, s2, c1, c2, trial_chunk,
                                    kernel, streams):
    """Dense blocks settle their pass II lists within a round or two while
    noise lists stay active, so rounds run on shrinking list sets
    (``tests/test_pass2_prune.py``)."""
    graph = random_blocky_graph(seed=seed, n=40, n_blocks=2, block=8,
                                n_noise=30)
    params = ShinglingParams(s1=s1, c1=c1, s2=s2, c2=c2, seed=seed,
                             trial_chunk=trial_chunk, kernel=kernel,
                             streams=streams)
    want = SerialPClust(params).run(graph).labels
    device = SimulatedDevice()
    got = GpClust(params).run(graph, device=device).labels
    assert np.array_equal(got, want)
    assert device.memory.used_bytes == 0  # every replaced upload freed


@pytest.mark.parametrize("streams", [1, 2])
def test_sort_kernel_takes_the_direct_path(planted, direct_calls, streams):
    params = BASE.with_overrides(kernel="sort", streams=streams)
    want = SerialPClust(params).run(planted).labels
    got = GpClust(params).run(planted).labels
    assert direct_calls == [True]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("overrides", [
    {"kernel": "sort"}, {"streams": 2}, {"kernel": "sort", "streams": 2},
])
def test_g2_fallbacks_match_serial(planted, direct_calls, overrides):
    """A multi-batch pass II builds ``G_II`` under either kernel and any
    stream count."""
    params = BASE.with_overrides(**overrides)
    want = SerialPClust(params).run(planted).labels
    got = GpClust(params, max_batch_elements=64).run(planted).labels
    assert direct_calls == [False]
    assert np.array_equal(got, want)


def test_overlapping_mode_falls_back(planted, direct_calls):
    params = BASE.with_overrides(report_mode="overlapping")
    want = SerialPClust(params).run(planted).overlapping
    got = GpClust(params).run(planted).overlapping
    assert direct_calls == []
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_multi_batch_pass2_falls_back(planted, direct_calls):
    want = SerialPClust(BASE).run(planted).labels
    got = GpClust(BASE, max_batch_elements=64).run(planted).labels
    assert direct_calls == [False]
    assert np.array_equal(got, want)


def _pass2_rounds(device: SimulatedDevice) -> int:
    """Pass II rounds the device has run (a device always counts)."""
    return device.obs.metrics.snapshot()["counters"]["shingle.pass2_rounds"]


def test_eager_select_columns(planted, monkeypatch):
    """A chunk on the eager select keeps segment order; its edges must
    still pair each slot with its own first-level shingle.  (A rejected
    plan and the sort engine both take this column order.)"""
    real = SimulatedDevice._select_top_ids

    def eager(self, *args, **kwargs):
        kwargs["tournament"] = None
        return real(self, *args, **kwargs)

    monkeypatch.setattr(SimulatedDevice, "_select_top_ids", eager)
    want = SerialPClust(BASE).run(planted).labels
    device = SimulatedDevice()
    assert np.array_equal(GpClust(BASE).run(planted, device=device).labels,
                          want)
    assert _pass2_rounds(device) >= 1  # a round did take the eager select


def test_zero_hash_coefficient_rejected(planted):
    """A zero coefficient makes the hash constant, so no ids can be
    recovered: the direct path and the G_II path both raise when the
    pass starts, under either kernel — also on disjoint cliques, where
    every pass II list is settled before the first round, so the direct
    pass runs no kernel round at all."""
    for graph in (planted, disjoint_cliques()):
        pass1 = _pass1(graph, BASE)
        indptr2, elements2 = pass1.next_pass_input()
        real = BASE.pass_config(2)
        a = real.a_array.copy()
        a[0] = 0
        config = types.SimpleNamespace(
            s=real.s, c=real.c, prime=real.prime, a_array=a,
            b_array=real.b_array, salts=real.salts)
        for kernel in ("fused", "sort"):
            with pytest.raises(ValueError, match="coefficients"):
                device_union_pass(indptr2, elements2, config,
                                  SimulatedDevice(), members1=pass1.members,
                                  kernel=kernel,
                                  n_vertices=graph.n_vertices, trial_chunk=3)
            with pytest.raises(ValueError, match="coefficients"):
                device_shingle_pass(indptr2, elements2, config,
                                    SimulatedDevice(), kernel=kernel,
                                    trial_chunk=3)
        device = SimulatedDevice()
        device_union_pass(indptr2, elements2, real, device,
                          members1=pass1.members,
                          n_vertices=graph.n_vertices, trial_chunk=3)
        assert (_pass2_rounds(device) == 0) == (graph is not planted)


def test_debug_check_catches_corrupted_tournament(planted, monkeypatch):
    """The first pass II round that runs is re-checked against the eager
    select, and this input does run one."""
    pass1 = _pass1(planted, BASE)
    indptr2, elements2 = pass1.next_pass_input()
    device = SimulatedDevice()
    device_union_pass(indptr2, elements2, BASE.pass_config(2), device,
                      members1=pass1.members, n_vertices=planted.n_vertices,
                      trial_chunk=3)
    assert _pass2_rounds(device) >= 1
    real_run = kernels.run_tournament

    def corrupt(plan, table, s, out, scratch=None):
        real_run(plan, table, s, out, scratch)
        out[:, [0, -1]] = out[:, [-1, 0]]
        return out

    monkeypatch.setattr(kernels, "run_tournament", corrupt)
    with pytest.raises(AssertionError, match="tournament"):
        device_union_pass(indptr2, elements2, BASE.pass_config(2),
                          SimulatedDevice(), members1=pass1.members,
                          n_vertices=planted.n_vertices, trial_chunk=3)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_fold_order_and_batching_do_not_matter(seed, n_batches):
    """Folding edge batches in any order equals one union over them all."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    src = rng.integers(0, n, int(rng.integers(0, 120)))
    dst = rng.integers(0, n, src.size)
    want = union_edge_keys(n, src * n + dst)
    fold = PartitionFold(n, TimeBreakdown(), get_obs().tracer)
    bounds = np.sort(rng.integers(0, src.size + 1, n_batches - 1))
    parts = list(zip(np.split(src, bounds), np.split(dst, bounds)))
    for i in rng.permutation(len(parts)):
        fold.fold(*parts[i])
    assert np.array_equal(fold.roots, want)
