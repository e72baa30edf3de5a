"""Shingling expressed as MapReduce jobs (the Hadoop-pClust analogue).

One MR job per shingling pass:

* **map** — input records are ``(left_id, element_list)`` adjacency items;
  the mapper runs the per-list serial shingle extraction (c trials of the
  insertion-sort minimum buffer) and emits
  ``(fingerprint, (left_id, members))`` — the ``<s_j, L(s_j)>`` tuples of
  the paper in key-value form;
* **reduce** — per distinct fingerprint, gather the generator set and keep
  one members tuple, emitting the shingle records the next stage needs.

The reduce-side sort IS the paper's "a sorting is done to gather all
vertices that generated each shingle".  Phase III reuses the standard
reporting code, so the MR pipeline's clustering is bit-identical to the
shared-memory pipelines — only (much) slower, which is the point.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.params import ShinglingParams, PassConfig
from repro.core.report import report_clusters
from repro.core.result import ClusterResult
from repro.core.serial import serial_top_s
from repro.core.passresult import PassResult
from repro.graph.bipartite import BipartiteCSR
from repro.graph.csr import CSRGraph
from repro.mapreduce.engine import JobStats, MapReduceEngine
from repro.util.mixhash import fold_fingerprint
from repro.util.timer import TimeBreakdown

BUCKET_MAP = "mr_map"
BUCKET_SHUFFLE = "mr_shuffle"
BUCKET_REDUCE = "mr_reduce"


def _adjacency_items(indptr: np.ndarray, elements: np.ndarray,
                     s: int) -> list[tuple[int, list[int]]]:
    """The job's input split: one record per qualifying adjacency list."""
    items = []
    indptr_l = np.asarray(indptr, dtype=np.int64).tolist()
    elements_l = np.asarray(elements, dtype=np.int64).tolist()
    for seg in range(len(indptr_l) - 1):
        lo, hi = indptr_l[seg], indptr_l[seg + 1]
        if hi - lo >= s:
            items.append((seg, elements_l[lo:hi]))
    return items


def mr_shingle_pass(engine: MapReduceEngine, indptr: np.ndarray,
                    elements: np.ndarray,
                    config: PassConfig) -> tuple[PassResult, JobStats]:
    """One shingling pass as a MapReduce job."""
    s, prime = config.s, config.prime
    coeffs = [(p.a, p.b) for p in config.hash_pairs]
    salts = [int(x) for x in config.salts.tolist()]
    n_seg = int(np.asarray(indptr).size - 1)

    def mapper(item):
        seg, neighbors = item
        for (a, b), salt in zip(coeffs, salts):
            top = serial_top_s(neighbors, a, b, prime, s)
            members = tuple(v for _, v in top)
            yield fold_fingerprint(members, salt), (seg, members)

    def reducer(fingerprint, values):
        gens = sorted({seg for seg, _ in values})
        members = values[0][1]
        yield fingerprint, members, gens

    items = _adjacency_items(indptr, elements, s)
    outputs, stats = engine.run(items, mapper, reducer)

    outputs.sort(key=lambda rec: rec[0])
    k = len(outputs)
    fingerprints = np.array([rec[0] for rec in outputs], dtype=np.uint64)
    members = np.array([rec[1] for rec in outputs],
                       dtype=np.int64).reshape(k, s)
    gen_graph = BipartiteCSR.from_lists(
        [np.asarray(rec[2], dtype=np.int64) for rec in outputs],
        n_right=n_seg)
    result = PassResult(fingerprints=fingerprints, members=members,
                        gen_graph=gen_graph, n_input_segments=n_seg)
    return result, stats


class MapReducePClust:
    """The full two-pass clustering as MapReduce jobs (+ local Phase III)."""

    def __init__(self, workdir, params: ShinglingParams | None = None,
                 n_mappers: int = 4, n_reducers: int = 4) -> None:
        self.params = params or ShinglingParams()
        self.engine = MapReduceEngine(workdir, n_mappers=n_mappers,
                                      n_reducers=n_reducers)

    def run(self, graph: CSRGraph) -> ClusterResult:
        params = self.params
        if params.report_mode != "partition":
            raise ValueError("MapReducePClust supports partition mode only")
        breakdown = TimeBreakdown()
        stats_total = JobStats()

        t0 = time.perf_counter()
        pass1, stats1 = mr_shingle_pass(
            self.engine, graph.indptr, graph.indices, params.pass_config(1))
        indptr2, elements2 = pass1.next_pass_input()
        pass2, stats2 = mr_shingle_pass(
            self.engine, indptr2, elements2, params.pass_config(2))
        for st in (stats1, stats2):
            stats_total.map_seconds += st.map_seconds
            stats_total.shuffle_seconds += st.shuffle_seconds
            stats_total.reduce_seconds += st.reduce_seconds
            stats_total.bytes_spilled += st.bytes_spilled
            stats_total.n_spill_files += st.n_spill_files
            stats_total.n_records += st.n_records

        output = report_clusters(pass1, pass2, graph.n_vertices,
                                 mode=params.report_mode)
        wall = time.perf_counter() - t0

        breakdown.add(BUCKET_MAP, stats_total.map_seconds)
        breakdown.add(BUCKET_SHUFFLE, stats_total.shuffle_seconds)
        breakdown.add(BUCKET_REDUCE, stats_total.reduce_seconds)
        breakdown.add("cpu", max(wall - stats_total.total_seconds, 0.0))

        result = ClusterResult(
            n_vertices=graph.n_vertices, params=params, backend="mapreduce",
            labels=np.asarray(output, dtype=np.int64), timings=breakdown,
            n_first_level_shingles=pass1.n_shingles)
        result.mr_stats = stats_total  # type: ignore[attr-defined]
        return result
