"""Tests for the pipeline drivers and ClusterResult."""

import numpy as np
import pytest

from repro.core.params import ShinglingParams
from repro.core.pipeline import (
    BUCKET_SERIAL_SHINGLING,
    GpClust,
    SerialPClust,
    cluster_graph,
)
from repro.core.result import ClusterResult
from repro.device.timingmodels import DeviceSpec
from repro.graph.io import save_npz
from repro.util.timer import (
    BUCKET_C2G,
    BUCKET_CPU,
    BUCKET_G2C,
    BUCKET_GPU,
    BUCKET_IO,
)


class TestDrivers:
    def test_serial_buckets(self, two_cliques_graph, small_params):
        res = SerialPClust(small_params).run(two_cliques_graph)
        assert res.backend == "serial"
        assert res.timings.get(BUCKET_CPU) > 0
        assert res.timings.get(BUCKET_SERIAL_SHINGLING) > 0
        # Buckets partition the wall time: no double counting.
        assert res.timings.total == pytest.approx(
            res.timings.get(BUCKET_CPU)
            + res.timings.get(BUCKET_SERIAL_SHINGLING))
        assert res.timings.get(BUCKET_GPU) == 0

    def test_device_buckets(self, two_cliques_graph, small_params):
        res = GpClust(small_params).run(two_cliques_graph)
        assert res.backend == "device"
        for bucket in (BUCKET_CPU, BUCKET_GPU, BUCKET_C2G, BUCKET_G2C):
            assert res.timings.get(bucket) > 0, bucket

    def test_two_cliques_found(self, two_cliques_graph, small_params):
        res = GpClust(small_params).run(two_cliques_graph)
        clusters = res.clusters(min_size=5)
        as_sets = [set(c.tolist()) for c in clusters]
        assert {0, 1, 2, 3, 4} in as_sets
        assert {5, 6, 7, 8, 9} in as_sets

    def test_io_seconds_recorded(self, two_cliques_graph, small_params):
        res = GpClust(small_params).run(two_cliques_graph, io_seconds=1.5)
        assert res.timings.get(BUCKET_IO) == pytest.approx(1.5)

    def test_overlapping_mode(self, two_cliques_graph, small_params):
        params = small_params.with_overrides(report_mode="overlapping")
        res = GpClust(params).run(two_cliques_graph)
        assert res.labels is None
        assert res.overlapping is not None
        assert res.n_clusters(min_size=5) == 2

    def test_shingle_counts_recorded(self, two_cliques_graph, small_params):
        res = GpClust(small_params).run(two_cliques_graph)
        assert res.n_first_level_shingles > 0


class TestClusterGraphConvenience:
    def test_from_graph(self, two_cliques_graph, small_params):
        res = cluster_graph(two_cliques_graph, small_params)
        assert res.backend == "device"

    def test_serial_backend(self, two_cliques_graph, small_params):
        res = cluster_graph(two_cliques_graph, small_params, backend="serial")
        assert res.backend == "serial"

    def test_unknown_backend(self, two_cliques_graph):
        with pytest.raises(ValueError):
            cluster_graph(two_cliques_graph, backend="tpu")

    def test_from_path_times_io(self, tmp_path, two_cliques_graph, small_params):
        path = tmp_path / "g.npz"
        save_npz(two_cliques_graph, path)
        res = cluster_graph(path, small_params)
        assert res.timings.get(BUCKET_IO) > 0
        assert res.n_clusters(min_size=5) == 2


class TestClusterResult:
    def _result(self, labels, params=None):
        labels = np.asarray(labels, dtype=np.int64)
        return ClusterResult(n_vertices=labels.size,
                             params=params or ShinglingParams(),
                             backend="device", labels=labels)

    def test_clusters_and_sizes(self):
        res = self._result([0, 0, 0, 1, 1, 2])
        assert [len(c) for c in res.clusters()] == [3, 2, 1]
        assert list(res.cluster_sizes()) == [3, 2, 1]
        assert list(res.cluster_sizes(min_size=2)) == [3, 2]
        assert res.n_clusters(min_size=2) == 2

    def test_clusters_sorted_members(self):
        res = self._result([1, 0, 1, 0])
        clusters = res.clusters(min_size=2)
        assert all(np.all(np.diff(c) > 0) for c in clusters)

    def test_n_clustered_vertices(self):
        res = self._result([0, 0, 1, 2, 3])
        assert res.n_clustered_vertices(min_size=2) == 2

    def test_validation_partition_mode(self):
        with pytest.raises(ValueError):
            ClusterResult(n_vertices=3, params=ShinglingParams(),
                          backend="device", labels=None)

    def test_validation_label_length(self):
        with pytest.raises(ValueError):
            ClusterResult(n_vertices=3, params=ShinglingParams(),
                          backend="device", labels=np.zeros(2, dtype=np.int64))

    def test_validation_overlapping_mode(self):
        params = ShinglingParams(report_mode="overlapping")
        with pytest.raises(ValueError):
            ClusterResult(n_vertices=3, params=params, backend="device",
                          labels=np.zeros(3, dtype=np.int64))

    def test_summary_keys(self):
        res = self._result([0, 0, 1])
        summary = res.summary()
        assert summary["n_clusters(>=2)"] == 1
        assert summary["largest_cluster"] == 2
        assert summary["backend"] == "device"
