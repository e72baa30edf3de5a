"""Pass II shingles each distinct input list once.

:func:`device_union_pass` drops every pass II input list that equals an
earlier one, runs its trial chunks on the distinct lists only, and folds
each dropped list into its representative afterwards.  Labels must equal
``SerialPClust``'s whatever the report mode, kernel, stream count or batch
budget, also when the list fingerprint collides for every list.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import device_exec, pipeline
from repro.core.device_exec import (_list_representatives, device_union_pass)
from repro.core.params import ShinglingParams
from repro.core.pipeline import GpClust, SerialPClust
from repro.core.serial import serial_shingle_pass
from repro.device.device import SimulatedDevice
from repro.graph.csr import CSRGraph
from repro.obs import observe, use_obs


def twin_graph(seed: int, n_core: int = 24, n_twins: int = 14,
               p: float = 0.25) -> CSRGraph:
    """A random graph plus ``n_twins`` vertices that each copy the
    adjacency list of a core vertex (non-adjacent twins), so groups of
    vertices share adjacency lists and pass I's generator lists repeat."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n_core, n_core)) < p, 1)
    src, dst = np.nonzero(upper)
    edges = list(zip(src.tolist(), dst.tolist()))
    for twin in range(n_core, n_core + n_twins):
        template = int(rng.integers(0, n_core))
        edges += [(twin, v) for v in range(n_core)
                  if upper[min(template, v), max(template, v)]]
    return CSRGraph.from_edges(np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                               n_vertices=n_core + n_twins)


def bicliques() -> CSRGraph:
    """Disjoint K(3,4) and K(2,5): every vertex on one side has the same
    list, so every pass I shingle of a side has that side as generator
    list and every pass II input list is a copy of one of four."""
    edges = []
    base = 0
    for left, right in ((3, 4), (2, 5)):
        edges += [(base + i, base + left + j)
                  for i in range(left) for j in range(right)]
        base += left + right
    return CSRGraph.from_edges(edges, n_vertices=base)


def _pass2_lists(params, graph):
    """The traced run's ``(pass2_lists, pass2_distinct_lists)`` counters."""
    ctx = observe()
    with use_obs(ctx):
        GpClust(params).run(graph)
    counters = ctx.metrics.snapshot()["counters"]
    return (counters["shingle.pass2_lists"],
            counters["shingle.pass2_distinct_lists"])


def _assert_same_clusters(got, want):
    if want.labels is not None:
        assert np.array_equal(got.labels, want.labels)
    else:
        assert len(got.overlapping) == len(want.overlapping)
        assert all(np.array_equal(g, w)
                   for g, w in zip(got.overlapping, want.overlapping))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), s1=st.integers(1, 3),
       s2=st.integers(1, 3), c1=st.integers(1, 8), c2=st.integers(1, 8),
       trial_chunk=st.integers(1, 4),
       report_mode=st.sampled_from(["partition", "overlapping"]),
       kernel=st.sampled_from(["fused", "sort"]),
       streams=st.sampled_from([1, 2]),
       max_batch=st.sampled_from([None, 24]))
def test_twin_graphs_match_serial(seed, s1, s2, c1, c2, trial_chunk,
                                  report_mode, kernel, streams, max_batch):
    """Graphs whose vertices share adjacency lists, so pass II's input
    repeats lists, match serial pClust under every report mode, kernel,
    stream count and batch budget (24 elements forces the multi-batch
    ``G_II`` fallback)."""
    graph = twin_graph(seed)
    params = ShinglingParams(s1=s1, c1=c1, s2=s2, c2=c2, seed=seed,
                             trial_chunk=trial_chunk, kernel=kernel,
                             streams=streams, report_mode=report_mode)
    want = SerialPClust(params).run(graph)
    got = GpClust(params, max_batch_elements=max_batch).run(graph)
    _assert_same_clusters(got, want)


def test_twin_graph_repeats_lists():
    """The property above does reach the dedup: pass II drops lists."""
    params = ShinglingParams(c1=8, c2=6, seed=1, trial_chunk=3)
    n_lists, n_distinct = _pass2_lists(params, twin_graph(1))
    assert 0 < n_distinct < n_lists


@pytest.mark.parametrize("kernel", ["fused", "sort"])
@pytest.mark.parametrize("streams", [1, 2])
def test_every_list_a_duplicate(kernel, streams):
    """Bicliques: each distinct list is one side of one biclique, and every
    other list is a copy of one of them."""
    params = ShinglingParams(c1=12, c2=5, seed=3, trial_chunk=4,
                             kernel=kernel, streams=streams)
    graph = bicliques()
    n_lists, n_distinct = _pass2_lists(params, graph)
    assert n_distinct == 4 < n_lists
    got = GpClust(params).run(graph).labels
    assert np.array_equal(got, SerialPClust(params).run(graph).labels)
    assert np.unique(got).size == 2


def test_s2_one():
    """``s2 = 1``: every non-empty generator list reaches the pass."""
    params = ShinglingParams(s1=2, c1=6, s2=1, c2=4, seed=9, trial_chunk=2)
    graph = twin_graph(4)
    n_lists, n_distinct = _pass2_lists(params, graph)
    assert n_distinct < n_lists
    assert np.array_equal(GpClust(params).run(graph).labels,
                          SerialPClust(params).run(graph).labels)


def test_colliding_fingerprints(monkeypatch):
    """With one fingerprint for every list, only the element-wise check
    tells lists apart: labels still equal serial, and no two unequal lists
    share a representative."""
    def constant(elements, indptr, n_values):
        return np.zeros(indptr.size - 1, dtype=np.uint64)

    monkeypatch.setattr(device_exec, "_list_fingerprints", constant)
    params = ShinglingParams(c1=8, c2=6, seed=2, trial_chunk=3)
    for seed in range(4):
        graph = twin_graph(seed)
        assert np.array_equal(GpClust(params).run(graph).labels,
                              SerialPClust(params).run(graph).labels)

    rng = np.random.default_rng(0)
    lists = [np.sort(rng.choice(9, int(rng.integers(2, 4)), replace=False))
             for _ in range(60)]
    rep = _list_representatives(*_csr_rows(lists), n_values=9)
    assert np.array_equal(rep[rep], rep)
    for row, r in enumerate(rep):
        assert np.array_equal(lists[row], lists[r])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_representatives_are_exact(seed):
    """Rows share a representative exactly when their lists are equal."""
    rng = np.random.default_rng(seed)
    pool = [np.sort(rng.choice(12, int(rng.integers(1, 5)), replace=False))
            for _ in range(int(rng.integers(1, 8)))]
    lists = [pool[i] for i in rng.integers(0, len(pool),
                                           int(rng.integers(1, 40)))]
    rep = _list_representatives(*_csr_rows(lists), n_values=12)
    assert np.array_equal(rep[rep], rep)
    for i in range(len(lists)):
        for j in range(len(lists)):
            same = (lists[i].size == lists[j].size
                    and np.array_equal(lists[i], lists[j]))
            assert (rep[i] == rep[j]) == same


def _csr_rows(lists):
    """``(elements, indptr, lengths)`` of a list of id arrays."""
    lengths = np.array([row.size for row in lists], dtype=np.int64)
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return np.concatenate(lists).astype(np.int64), indptr, lengths


def test_repeated_id_still_rejected():
    """The debug repeated-id check still runs when the offending list is
    one of several copies."""
    segments = [[1, 2, 2, 5], [1, 2, 2, 5], [0, 3, 7], [0, 3, 7]]
    elements = np.concatenate(segments).astype(np.int64)
    indptr = np.cumsum([0] + [len(seg) for seg in segments])
    config = ShinglingParams(c1=6, c2=4, seed=2).pass_config(2)
    with pytest.raises(ValueError, match="repeats"):
        device_union_pass(indptr, elements, config, SimulatedDevice(),
                          members1=np.arange(8).reshape(4, 2),
                          n_vertices=9, trial_chunk=2)


def test_dedup_span_and_counters():
    """A traced run has one ``exec.pass2_dedup`` span inside
    ``gpclust.pass2`` whose counts match the counters."""
    params = ShinglingParams(c1=8, c2=6, seed=1, trial_chunk=3)
    graph = twin_graph(1)
    pass1 = serial_shingle_pass(graph.indptr, graph.indices,
                                params.pass_config(1))
    indptr2, _ = pass1.next_pass_input()
    ctx = observe()
    with use_obs(ctx):
        GpClust(params).run(graph)
    records = ctx.tracer.records
    (span,) = [r for r in records if r.name == "exec.pass2_dedup"]
    (pass2,) = [r for r in records if r.name == "gpclust.pass2"]
    assert pass2.start <= span.start and span.end <= pass2.end
    counters = ctx.metrics.snapshot()["counters"]
    assert span.attrs["n_lists"] == counters["shingle.pass2_lists"]
    assert span.attrs["n_distinct"] == counters[
        "shingle.pass2_distinct_lists"]
    assert span.attrs["n_lists"] == int((np.diff(indptr2) >= 2).sum())


def test_multi_batch_fallback_keeps_every_list(monkeypatch):
    """When the distinct lists still need several batches, the ``G_II``
    path shingles every list and the labels still match."""
    taken = []
    real = pipeline.device_union_pass

    def spy(*args, **kwargs):
        fold = real(*args, **kwargs)
        taken.append(fold is not None)
        return fold

    monkeypatch.setattr(pipeline, "device_union_pass", spy)
    params = ShinglingParams(c1=8, c2=6, seed=1, trial_chunk=3)
    graph = twin_graph(1)
    got = GpClust(params, max_batch_elements=16).run(graph).labels
    assert taken == [False]
    assert np.array_equal(got, SerialPClust(params).run(graph).labels)
