"""Inter-pass aggregation on the host — bit-identity and host-merge paths.

The host merge (``StreamingAggregator`` over ``kernels.agg_merge``, or the
whole-batch ``aggregate_pass`` when a pass is split into batches) is the
pipeline's one aggregation backend.  Its :class:`PassResult`s and cluster
labels must equal the serial reference whether the pipeline provisions its
own device or the caller hands one in, across execution modes and stream
counts — and the cases that cannot take the on-device chunk reduction
(a pass split into batches, a device too small for one batch) must still
merge on the host and match.  Every kernel takes the reduction.
"""

import numpy as np
import pytest

from repro.core.device_exec import device_shingle_pass
from repro.core.params import ShinglingParams
from repro.core.pipeline import GpClust, SerialPClust
from repro.device.device import SimulatedDevice
from repro.device.timingmodels import DeviceSpec
from repro.obs import observe, use_obs
from repro.synthdata.planted import PlantedFamilyConfig, planted_family_graph
from tests.conftest import cluster_via, schedule


@pytest.fixture(scope="module")
def planted():
    return planted_family_graph(PlantedFamilyConfig(n_families=8), seed=7)


BASE = ShinglingParams(s1=2, c1=8, s2=2, c2=6, trial_chunk=2)

HOST_MERGE_SPANS = {"exec.merge_partials", "exec.aggregate"}


def _run(planted, **overrides):
    return GpClust(BASE.with_overrides(**overrides)).run(planted.graph)


def _host_merges(records):
    """Per pass, the names of the host aggregation spans inside it."""
    merges = {}
    for name in ("gpclust.pass1", "gpclust.pass2"):
        (span,) = [r for r in records if r.name == name]
        merges[name] = {r.name for r in records
                        if span.start <= r.start and r.end <= span.end
                        and r.name in HOST_MERGE_SPANS}
    return merges


class TestBitIdentity:
    def test_host_backend_matches_serial(self, planted):
        serial = SerialPClust(BASE).run(planted.graph)
        host = _run(planted)
        assert np.array_equal(host.labels, serial.labels)

    @pytest.mark.parametrize("backend", ["auto", "device"])
    @pytest.mark.parametrize("streams", [1, 2, 4])
    def test_labels_identical_across_backends_and_streams(
            self, planted, backend, streams):
        # "auto": GpClust builds the device; "device": the caller builds
        # it and hands it in.
        ref = _run(planted)
        got = cluster_via(backend, planted.graph,
                          BASE.with_overrides(streams=streams))
        assert np.array_equal(got.labels, ref.labels)

    @pytest.mark.parametrize("exec_mode", ["sync", "prefetch", "multistream"])
    def test_labels_identical_across_exec_modes(self, planted, exec_mode):
        ref = _run(planted)
        params, spec = schedule(exec_mode, BASE)
        got = cluster_via("device", planted.graph, params, spec)
        assert np.array_equal(got.labels, ref.labels)

    @pytest.mark.parametrize("streams", [1, 2])
    def test_pass_result_identical(self, planted, streams):
        graph = planted.graph
        config = BASE.pass_config(1)
        ref = device_shingle_pass(
            graph.indptr, graph.indices, config, SimulatedDevice(),
            kernel="fused", trial_chunk=2)
        got = device_shingle_pass(
            graph.indptr, graph.indices, config, SimulatedDevice(),
            kernel="fused", trial_chunk=2, streams=streams)
        assert got == ref


    def test_sort_kernel_takes_the_reduce_path(self, planted):
        # The sort engine rides the same path as fused: pass I reduces on
        # the device and merges compacted partials, pass II feeds the
        # union directly.
        ref = _run(planted)
        obs = observe()
        with use_obs(obs):
            got = _run(planted, kernel="sort")
        assert np.array_equal(got.labels, ref.labels)
        records = obs.tracer.records
        assert _host_merges(records) == {
            "gpclust.pass1": {"exec.merge_partials"}, "gpclust.pass2": set()}
        engines = {r.attrs["select"] for r in records
                   if r.name.startswith("device.shingle_chunk")}
        assert engines == {"sort"}


class TestFallbacks:

    def test_multi_batch_degrades_to_host(self, planted):
        ref = _run(planted)
        obs = observe()
        with use_obs(obs):
            got = GpClust(BASE, max_batch_elements=64).run(planted.graph)
        assert np.array_equal(got.labels, ref.labels)
        merges = _host_merges(obs.tracer.records)
        assert merges == {"gpclust.pass1": {"exec.aggregate"},
                          "gpclust.pass2": {"exec.aggregate"}}

    def test_resident_too_large_degrades_to_host(self, planted):
        # A 1 MB device cannot hold a whole pass, so each pass is split
        # into batches whose shingles are aggregated on the host.
        spec = DeviceSpec(memory_capacity_bytes=1 << 20)
        ref = _run(planted)
        obs = observe()
        with use_obs(obs):
            got = GpClust(BASE, device_spec=spec).run(planted.graph)
        assert np.array_equal(got.labels, ref.labels)
        merges = _host_merges(obs.tracer.records)
        assert merges == {"gpclust.pass1": {"exec.aggregate"},
                          "gpclust.pass2": {"exec.aggregate"}}
