"""Ablations over the design choices DESIGN.md calls out.

* Shingle parameters ``s`` and ``c`` (the paper credits gpClust's higher
  sensitivity to "the high configurable s and c parameters");
* tournament selection vs. Thrust-faithful full segmented sort;
* union-find partition vs. overlapping component reporting.
"""

from __future__ import annotations

import os
import platform

import numpy as np
import pytest

from repro.core.params import ShinglingParams
from repro.core.pipeline import GpClust
from repro.eval.confusion import quality_scores
from repro.eval.partition import Partition
from repro.pipeline.workloads import make_quality_workload
from repro.util.tables import (
    format_percent,
    format_seconds,
    format_table,
    table_payload,
)


@pytest.fixture(scope="module")
def quality_graph(scale):
    return make_quality_workload(scale, seed=11)


def test_ablation_c_parameter(benchmark, quality_graph, report_writer, scale):
    """Sensitivity grows with the trial count c (more shingles, more
    recruitment) at roughly constant PPV."""
    pg = quality_graph
    bench = Partition(pg.family_labels)
    rows = []
    sensitivities = []
    for c1 in (20, 50, 100, 200):
        params = ShinglingParams(c1=c1, c2=c1 // 2, seed=5)
        if c1 == 100:
            result = benchmark.pedantic(
                lambda p=params: GpClust(p).run(pg.graph), rounds=1, iterations=1)
        else:
            result = GpClust(params).run(pg.graph)
        qs = quality_scores(Partition(result.labels), bench, min_size=20)
        sensitivities.append(qs.sensitivity)
        rows.append([f"c1={c1}, c2={c1 // 2}",
                     format_percent(qs.ppv),
                     format_percent(qs.sensitivity),
                     str(result.n_clusters(min_size=20)),
                     format_seconds(result.timings.total)])
    headers = ["params", "PPV", "SE", "#clusters(>=20)", "seconds"]
    title = f"Ablation — trial count c (scale={scale})"
    table = format_table(headers, rows, title=title)
    report_writer("ablation_c_parameter", table,
                  data=[table_payload(title, headers, rows)])
    # More trials must not reduce sensitivity (monotone up to noise).
    assert sensitivities[-1] >= sensitivities[0]


def test_ablation_s_parameter(benchmark, quality_graph, report_writer, scale):
    """Larger shingle size s is more conservative: fewer merges."""
    pg = quality_graph
    bench = Partition(pg.family_labels)
    rows = []
    recruited = []
    for s in (1, 2, 3, 4):
        params = ShinglingParams(s1=s, s2=2, c1=60, c2=30, seed=5)
        if s == 2:
            result = benchmark.pedantic(
                lambda p=params: GpClust(p).run(pg.graph), rounds=1, iterations=1)
        else:
            result = GpClust(params).run(pg.graph)
        part = Partition(result.labels)
        qs = quality_scores(part, bench, min_size=20)
        recruited.append(part.n_clustered(min_size=20))
        rows.append([f"s1={s}",
                     format_percent(qs.ppv),
                     format_percent(qs.sensitivity),
                     str(part.n_clustered(min_size=20))])
    headers = ["params", "PPV", "SE", "#seqs clustered"]
    title = f"Ablation — shingle size s (scale={scale})"
    table = format_table(headers, rows, title=title)
    report_writer("ablation_s_parameter", table,
                  data=[table_payload(title, headers, rows)])
    # s=1 ("one shingle based approach can be too aggressive") recruits the
    # most; s=4 the least.
    assert recruited[0] >= recruited[-1]


def test_ablation_kernel_choice(benchmark, quality_graph, report_writer, scale):
    """Tournament select vs. Thrust-style full segmented sort over the same
    fused hash keys: identical output, different cost.  Both run the same
    pass path, so the gap is the top-s engine alone."""
    pg = quality_graph
    params = ShinglingParams(c1=60, c2=30, seed=5)
    results = {}
    for kernel in ("fused", "sort"):
        p = params.with_overrides(kernel=kernel)
        if kernel == "fused":
            res = benchmark.pedantic(lambda p=p: GpClust(p).run(pg.graph),
                                     rounds=1, iterations=1)
        else:
            res = GpClust(p).run(pg.graph)
        results[kernel] = res
    headers = ["kernel", "GPU seconds (measured)", "GPU ms (modeled K20)"]
    rows = [[k, format_seconds(r.timings.get("gpu")),
             f"{1e3 * r.timings.get_modeled('gpu'):.2f}"]
            for k, r in results.items()]
    host = (f"{platform.machine()}, {os.cpu_count()} cores, "
            f"Python {platform.python_version()}, NumPy {np.__version__}")
    title = (f"Ablation — tournament select vs. segmented-sort kernel "
             f"(scale={scale}; host: {host})")
    table = format_table(headers, rows, title=title)
    report_writer("ablation_kernel", table,
                  data={"tables": [table_payload(title, headers, rows)],
                        "host": host})
    assert np.array_equal(results["fused"].labels, results["sort"].labels)


def test_ablation_report_modes(benchmark, quality_graph, report_writer, scale):
    """Partition (paper's choice) vs. overlapping reporting."""
    pg = quality_graph
    params = ShinglingParams(c1=60, c2=30, seed=5)
    part_res = GpClust(params).run(pg.graph)
    over_res = benchmark.pedantic(
        lambda: GpClust(params.with_overrides(report_mode="overlapping")).run(pg.graph),
        rounds=1, iterations=1)

    part_clusters = part_res.clusters(min_size=20)
    over_clusters = over_res.clusters(min_size=20)
    n_over_vertices = (np.unique(np.concatenate(over_clusters)).size
                       if over_clusters else 0)
    total_memberships = sum(c.size for c in over_clusters)

    headers = ["mode", "#clusters(>=20)", "#memberships", "#distinct vertices"]
    rows = [["partition", str(len(part_clusters)),
             str(sum(c.size for c in part_clusters)),
             str(sum(c.size for c in part_clusters))],
            ["overlapping", str(len(over_clusters)),
             str(total_memberships), str(n_over_vertices)]]
    title = f"Ablation — Phase III reporting mode (scale={scale})"
    table = format_table(headers, rows, title=title)
    report_writer("ablation_report_mode", table,
                  data=[table_payload(title, headers, rows)])

    # Overlapping mode may assign a vertex to several clusters.
    assert total_memberships >= n_over_vertices
    # The partition covers at least the vertices the components cover.
    assert sum(c.size for c in part_clusters) > 0


def test_ablation_grouping_strategy(benchmark, quality_graph, report_writer,
                                    scale):
    """One-shingle grouping (Section III-B's rejected alternative) vs. the
    two-level scheme: under union-find partitioning the quality converges
    (co-generators merge either way), but skipping the second pass buys a
    large runtime saving — the honest trade the ablation quantifies."""
    pg = quality_graph
    bench = Partition(pg.family_labels)
    rows = []
    results = {}
    for grouping in ("two_level", "one_shingle"):
        params = ShinglingParams(c1=60, c2=30, seed=5, grouping=grouping)
        if grouping == "one_shingle":
            res = benchmark.pedantic(
                lambda p=params: GpClust(p).run(pg.graph),
                rounds=1, iterations=1)
        else:
            res = GpClust(params).run(pg.graph)
        results[grouping] = res
        qs = quality_scores(Partition(res.labels), bench, min_size=20)
        rows.append([grouping,
                     format_percent(qs.ppv),
                     format_percent(qs.sensitivity),
                     str(res.n_clusters(min_size=20)),
                     format_seconds(res.timings.total)])
    headers = ["grouping", "PPV", "SE", "#clusters(>=20)", "seconds"]
    title = f"Ablation — grouping strategy (scale={scale})"
    table = format_table(headers, rows, title=title)
    report_writer("ablation_grouping", table,
                  data=[table_payload(title, headers, rows)])
    # One-shingle skips pass 2 entirely: it must be clearly faster.
    assert (results["one_shingle"].timings.total
            < 0.8 * results["two_level"].timings.total)


def test_ablation_kcore_prefilter(benchmark, quality_graph, report_writer,
                                  scale):
    """k-core pruning before shingling: discard vertices that cannot sit in
    any dense cluster.  Reduces shingling work; cluster cores (internal
    degree >= p_core * size) survive the filter."""
    from repro.graph.kcore import core_filter

    pg = quality_graph
    bench = Partition(pg.family_labels)
    params = ShinglingParams(c1=60, c2=30, seed=5)
    rows = []
    results = {}
    for k in (0, 3, 8):
        graph = pg.graph if k == 0 else core_filter(pg.graph, k)
        if k == 3:
            res = benchmark.pedantic(
                lambda g=graph: GpClust(params).run(g), rounds=1, iterations=1)
        else:
            res = GpClust(params).run(graph)
        results[k] = res
        qs = quality_scores(Partition(res.labels), bench, min_size=20)
        rows.append([f"k={k}" if k else "no filter",
                     str(graph.nnz // 2),
                     format_percent(qs.ppv),
                     format_percent(qs.sensitivity),
                     format_seconds(res.timings.total)])
    headers = ["prefilter", "#edges kept", "PPV", "SE", "seconds"]
    title = f"Ablation — k-core prefilter (scale={scale})"
    table = format_table(headers, rows, title=title)
    report_writer("ablation_kcore", table,
                  data=[table_payload(title, headers, rows)])
    # Filtering must not create false merges (PPV non-decreasing-ish).
    qs_base = quality_scores(Partition(results[0].labels), bench, min_size=20)
    qs_k8 = quality_scores(Partition(results[8].labels), bench, min_size=20)
    assert qs_k8.ppv >= qs_base.ppv - 0.02

