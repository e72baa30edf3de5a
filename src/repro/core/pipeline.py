"""Top-level clustering drivers: serial pClust and device-backed gpClust.

``SerialPClust`` is the paper's serial baseline (Section III-B): pure-Python
shingling with insertion-sort minimum buffers, dict aggregation, and a scalar
union-find Phase III.  ``GpClust`` is Algorithm 2: batches stream through the
simulated device for both shingling levels while the CPU aggregates the
shingle graph in between and reports dense subgraphs at the end.

Both produce identical clusterings for identical parameters — the test suite
asserts this — differing only in where the time goes, which is the subject of
Table I.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.core.device_exec import device_shingle_pass, device_union_pass
from repro.core.params import (
    GROUPING_ONE_SHINGLE,
    REPORT_PARTITION,
    ShinglingParams,
)
from repro.core.report import (one_shingle_labels, overlapping_clusters,
                               report_clusters)
from repro.core.result import ClusterResult
from repro.core.serial import (serial_one_shingle_labels,
                               serial_partition_labels, serial_shingle_pass)
from repro.device.device import SimulatedDevice
from repro.device.timingmodels import DeviceSpec
from repro.graph.csr import CSRGraph
from repro.graph.io import timed_load
from repro.obs import get_obs
from repro.util.timer import BUCKET_CPU, BUCKET_IO, TimeBreakdown

#: Extra measured bucket recording time spent in the two shingling passes of
#: the serial baseline — the part the GPU accelerates (the paper profiles it
#: at ~80% of serial runtime).
BUCKET_SERIAL_SHINGLING = "serial_shingling"


class SerialPClust:
    """The serial Shingling clustering baseline."""

    def __init__(self, params: ShinglingParams | None = None) -> None:
        self.params = params or ShinglingParams()

    def run(self, graph: CSRGraph, io_seconds: float = 0.0) -> ClusterResult:
        """Cluster ``graph``; all compute lands in the ``cpu`` bucket, with
        the shingling share additionally recorded under
        ``serial_shingling``."""
        params = self.params
        breakdown = TimeBreakdown()
        if io_seconds:
            breakdown.add(BUCKET_IO, io_seconds)
        tracer = get_obs().tracer

        t_start = time.perf_counter()

        t0 = time.perf_counter()
        pass1 = serial_shingle_pass(graph.indptr, graph.indices, params.pass_config(1))
        if params.grouping == GROUPING_ONE_SHINGLE:
            pass2 = None
        else:
            indptr2, elements2 = pass1.next_pass_input()
            pass2 = serial_shingle_pass(indptr2, elements2, params.pass_config(2))
        shingle_seconds = time.perf_counter() - t0
        breakdown.add(BUCKET_SERIAL_SHINGLING, shingle_seconds)

        with tracer.span("phase3.report", backend="unionfind"):
            if params.grouping == GROUPING_ONE_SHINGLE:
                output = serial_one_shingle_labels(pass1, graph.n_vertices)
            elif params.report_mode == REPORT_PARTITION:
                output = serial_partition_labels(pass1, pass2,
                                                 graph.n_vertices)
            else:
                output = overlapping_clusters(pass1, pass2)
        # The cpu bucket holds the NON-shingling remainder (Phase III etc.),
        # so buckets sum to wall time without double-counting the shingling
        # share recorded above.
        t_end = time.perf_counter()
        breakdown.add(BUCKET_CPU, t_end - t_start - shingle_seconds)
        if tracer.enabled:
            tracer.record("serial_pclust.run", t_start, t_end,
                          attrs={"n_vertices": graph.n_vertices})

        return _make_result(graph.n_vertices, params, "serial", output,
                            breakdown, pass1.n_shingles)


class GpClust:
    """The CPU-GPU clustering pipeline of Algorithm 2."""

    def __init__(self, params: ShinglingParams | None = None,
                 device_spec: DeviceSpec | None = None,
                 max_batch_elements: int | None = None) -> None:
        self.params = params or ShinglingParams()
        self.device_spec = device_spec or DeviceSpec()
        self.max_batch_elements = max_batch_elements

    def run(self, graph: CSRGraph, io_seconds: float = 0.0,
            device: SimulatedDevice | None = None) -> ClusterResult:
        """Cluster ``graph`` through the simulated device.

        A fresh device (and fresh component breakdown) is created per run
        unless one is supplied.
        """
        params = self.params
        breakdown = TimeBreakdown()
        if io_seconds:
            breakdown.add(BUCKET_IO, io_seconds)
        if device is None:
            device = SimulatedDevice(self.device_spec, breakdown)
        else:
            device.set_breakdown(breakdown)
        tracer = device.obs.tracer
        t_start = time.perf_counter()
        with breakdown.timing(BUCKET_CPU):
            config1 = params.pass_config(1)
            config2 = params.pass_config(2)

        with tracer.span("gpclust.pass1"):
            pass1 = device_shingle_pass(
                graph.indptr, graph.indices, config1, device,
                kernel=params.kernel, trial_chunk=params.trial_chunk,
                max_elements=self.max_batch_elements,
                streams=params.streams)
        if params.grouping == GROUPING_ONE_SHINGLE:
            with breakdown.timing(BUCKET_CPU), \
                    tracer.span("phase3.report"):
                output = one_shingle_labels(pass1, graph.n_vertices)
            device.sync_metrics()
            self._record_run(tracer, t_start, graph)
            return _make_result(graph.n_vertices, params, "device", output,
                                breakdown, pass1.n_shingles)

        with breakdown.timing(BUCKET_CPU), \
                tracer.span("gpclust.pass2_input"):
            indptr2, elements2 = pass1.next_pass_input()
        fold = None
        with tracer.span("gpclust.pass2") as span:
            if params.report_mode == REPORT_PARTITION:
                # Partition mode needs only G_II's vertex components: feed
                # the pass straight into the union when it can.
                fold = device_union_pass(
                    indptr2, elements2, config2, device,
                    members1=pass1.members, n_vertices=graph.n_vertices,
                    kernel=params.kernel, trial_chunk=params.trial_chunk,
                    max_elements=self.max_batch_elements,
                    streams=params.streams)
            span.set(direct=fold is not None)
            if fold is None:
                pass2 = device_shingle_pass(
                    indptr2, elements2, config2, device,
                    kernel=params.kernel, trial_chunk=params.trial_chunk,
                    max_elements=self.max_batch_elements,
                    streams=params.streams)

        with breakdown.timing(BUCKET_CPU), tracer.span("phase3.report"):
            if fold is not None:
                output = fold.labels()
            else:
                output = report_clusters(pass1, pass2, graph.n_vertices,
                                         mode=params.report_mode)

        # Flush gauge-backed device accounting (transfer bytes, scratch
        # pool) so a traced run's embedded metrics
        # snapshot carries the whole device picture.
        with breakdown.timing(BUCKET_CPU):
            device.sync_metrics()
        self._record_run(tracer, t_start, graph)
        return _make_result(graph.n_vertices, params, "device", output,
                            breakdown, pass1.n_shingles)

    @staticmethod
    def _record_run(tracer, t_start: float, graph: CSRGraph) -> None:
        """Close the root ``gpclust.run`` span over the whole clustering."""
        if tracer.enabled:
            tracer.record("gpclust.run", t_start, time.perf_counter(),
                          attrs={"n_vertices": graph.n_vertices,
                                 "n_edges": graph.n_edges})


def _make_result(n_vertices: int, params: ShinglingParams, backend: str,
                 output, breakdown: TimeBreakdown, k1: int) -> ClusterResult:
    if params.report_mode == REPORT_PARTITION:
        return ClusterResult(
            n_vertices=n_vertices, params=params, backend=backend,
            labels=np.asarray(output, dtype=np.int64), timings=breakdown,
            n_first_level_shingles=k1)
    return ClusterResult(
        n_vertices=n_vertices, params=params, backend=backend,
        overlapping=list(output), timings=breakdown,
        n_first_level_shingles=k1)


def cluster_graph(graph: CSRGraph | str | Path,
                  params: ShinglingParams | None = None,
                  backend: str = "device",
                  device_spec: DeviceSpec | None = None) -> ClusterResult:
    """One-call convenience API: cluster a graph (or graph file).

    Parameters
    ----------
    graph:
        A :class:`CSRGraph`, or a path to a graph file (``.npz`` or edge
        list) — file loads are timed into the ``disk_io`` bucket, matching
        Algorithm 2's "CPU loads graph from disk I/O" step.
    params:
        Shingling parameters; paper defaults when omitted.
    backend:
        ``"device"`` (gpClust) or ``"serial"`` (the baseline).
    device_spec:
        Device description for the ``"device"`` backend.
    """
    io_seconds = 0.0
    if isinstance(graph, (str, Path)):
        graph, io_seconds = timed_load(graph)
    if backend == "device":
        return GpClust(params, device_spec).run(graph, io_seconds=io_seconds)
    if backend == "serial":
        return SerialPClust(params).run(graph, io_seconds=io_seconds)
    raise ValueError(f"unknown backend {backend!r}")
