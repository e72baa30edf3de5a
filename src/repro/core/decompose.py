"""pClust's divide-and-conquer driver: cluster per connected component.

"In order to process the large scale input graph, connected component
detection is applied to the input graph to break down the large problem
instance into subproblems of much smaller size.  For each connected
component, we developed an approach based on ... Shingling ... to report
clusters." (Section I-A.)

Because every shingle of a vertex is a subset of its neighborhood, shingles
never span connected components, so clustering each component independently
yields *exactly* the same partition as one global run — provided components
keep their original vertex ids (the min-wise hashes are functions of the
ids).  This module exploits that: components are packed into balanced
buckets and clustered concurrently on a thread pool, one simulated device
per worker — the shared-memory parallel pClust of Rytsareva et al. [18],
which the paper cites as its CPU-parallel predecessor.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.params import ShinglingParams
from repro.core.pipeline import GpClust, SerialPClust
from repro.core.result import ClusterResult
from repro.device.timingmodels import DeviceSpec
from repro.graph.components import connected_components
from repro.graph.csr import CSRGraph
from repro.util.timer import TimeBreakdown


def canonicalize_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel a partition so groups are numbered by their smallest member.

    Two label arrays describe the same partition iff their canonical forms
    are equal; all pipeline drivers return this form.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        return labels.copy()
    # Map each group label to the smallest vertex carrying it.
    min_vertex = np.full(int(labels.max()) + 1, labels.size, dtype=np.int64)
    np.minimum.at(min_vertex, labels, np.arange(labels.size, dtype=np.int64))
    group_min = min_vertex[labels]
    _, canonical = np.unique(group_min, return_inverse=True)
    return canonical.astype(np.int64)


def _component_buckets(component_labels: np.ndarray, graph: CSRGraph,
                       n_buckets: int) -> list[np.ndarray]:
    """Pack components into ``n_buckets`` groups balanced by edge count.

    Greedy longest-processing-time assignment over per-component edge
    weights; returns, per bucket, the vertex ids it owns.
    """
    degrees = graph.degrees()
    n_comp = int(component_labels.max()) + 1 if component_labels.size else 0
    comp_weight = np.bincount(component_labels, weights=degrees,
                              minlength=n_comp)
    order = np.argsort(comp_weight)[::-1]
    loads = np.zeros(n_buckets, dtype=np.float64)
    assignment = np.zeros(n_comp, dtype=np.int64)
    for comp in order.tolist():
        bucket = int(loads.argmin())
        assignment[comp] = bucket
        loads[bucket] += comp_weight[comp]
    vertex_bucket = assignment[component_labels]
    return [np.flatnonzero(vertex_bucket == b) for b in range(n_buckets)]


def _masked_graph(graph: CSRGraph, vertices: np.ndarray) -> CSRGraph:
    """The graph restricted to ``vertices`` WITHOUT relabeling.

    Other vertices keep empty adjacency lists, so vertex ids — and hence
    min-wise hash values and shingle fingerprints — are unchanged.
    """
    keep = np.zeros(graph.n_vertices, dtype=bool)
    keep[vertices] = True
    mask = keep[np.repeat(np.arange(graph.n_vertices), graph.degrees())]
    lengths = np.diff(graph.indptr) * keep
    indptr = np.zeros(graph.n_vertices + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return CSRGraph(indptr, graph.indices[mask], validate=False)


def cluster_by_components(
    graph: CSRGraph,
    params: ShinglingParams | None = None,
    backend: str = "device",
    device_spec: DeviceSpec | None = None,
    n_workers: int = 1,
) -> ClusterResult:
    """Cluster each connected component independently; merge the results.

    Parameters
    ----------
    graph:
        The input similarity graph.
    params:
        Shingling parameters (partition report mode required — per-component
        merging of overlapping clusters is ambiguous and not supported).
    backend:
        ``"device"`` or ``"serial"`` per-bucket pipeline.
    device_spec:
        Device description for the device backend (one device per worker).
    n_workers:
        Concurrent buckets; components are balanced over workers by edge
        count and clustered on a thread pool (NumPy kernels release the
        GIL, so buckets genuinely overlap).

    Returns
    -------
    ClusterResult
        Identical partition to a single global run with the same params.
    """
    params = params or ShinglingParams()
    if params.report_mode != "partition":
        raise ValueError("cluster_by_components requires partition mode")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")

    component_labels = connected_components(graph)
    buckets = [v for v in _component_buckets(component_labels, graph,
                                             n_workers) if v.size]

    def run_bucket(vertices: np.ndarray) -> ClusterResult:
        sub = _masked_graph(graph, vertices)
        if backend == "device":
            return GpClust(params, device_spec).run(sub)
        if backend == "serial":
            return SerialPClust(params).run(sub)
        raise ValueError(f"unknown backend {backend!r}")

    if len(buckets) <= 1 or n_workers == 1:
        results = [run_bucket(v) for v in buckets]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(run_bucket, buckets))

    # Merge: bucket partitions have disjoint non-singleton support, so a
    # per-bucket label offset keeps groups distinct; canonicalization then
    # matches the global run's labeling exactly.
    merged = np.arange(graph.n_vertices, dtype=np.int64)
    offset = graph.n_vertices
    timings = TimeBreakdown()
    k1 = 0
    for vertices, result in zip(buckets, results):
        assert result.labels is not None
        merged[vertices] = result.labels[vertices] + offset
        offset += int(result.labels.max()) + 1
        timings.merge(result.timings)
        k1 += result.n_first_level_shingles

    return ClusterResult(
        n_vertices=graph.n_vertices,
        params=params,
        backend=f"{backend}+components",
        labels=canonicalize_labels(merged),
        timings=timings,
        n_first_level_shingles=k1,
    )
