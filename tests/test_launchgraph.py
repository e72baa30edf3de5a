"""Pipeline bit-identity of the fused select path across repeated runs.

The fused reduce path plans its tournament select once per pass from the
batch geometry and keeps no state between passes or runs.  Every cluster
labeling and PassResult must therefore equal the serial reference on a cold
start and on every warm re-run — one device reused, or one process running
the pipeline again — across execution modes and aggregate backends.
"""

import numpy as np
import pytest

from repro.core.device_exec import device_shingle_pass
from repro.core.params import ShinglingParams
from repro.core.pipeline import GpClust, SerialPClust
from repro.core.serial import serial_shingle_pass
from repro.device.device import SimulatedDevice
from repro.synthdata.planted import PlantedFamilyConfig, planted_family_graph


@pytest.fixture(scope="module")
def planted():
    return planted_family_graph(PlantedFamilyConfig(n_families=8), seed=11)


@pytest.fixture(scope="module")
def serial_labels(planted):
    return SerialPClust(BASE).run(planted.graph).labels


BASE = ShinglingParams(s1=2, c1=8, s2=2, c2=6, trial_chunk=2)


def _labels(graph, **overrides):
    return GpClust(BASE.with_overrides(**overrides)).run(graph).labels


class TestPipelineBitIdentity:
    def test_modes_identical_labels(self, planted, serial_labels):
        # Twice: the second run follows the first in the same process.
        cold = _labels(planted.graph)
        warm = _labels(planted.graph)
        assert np.array_equal(cold, serial_labels)
        assert np.array_equal(warm, serial_labels)
        assert np.unique(cold).size > 1

    @pytest.mark.parametrize("exec_mode", ["sync", "prefetch", "multistream"])
    def test_exec_modes_identical(self, planted, serial_labels, exec_mode):
        for _ in range(2):
            got = _labels(planted.graph, exec_mode=exec_mode)
            assert np.array_equal(got, serial_labels)

    @pytest.mark.parametrize("backend", ["host", "device"])
    def test_aggregate_backends_identical(self, planted, serial_labels,
                                          backend):
        for _ in range(2):
            got = _labels(planted.graph, aggregate_backend=backend)
            assert np.array_equal(got, serial_labels)

    def test_pass_result_identical_warm_replay(self, planted):
        graph = planted.graph
        config = BASE.pass_config(1)
        ref = serial_shingle_pass(graph.indptr, graph.indices, config)
        plan = BASE.execution_plan()
        device = SimulatedDevice()
        counts = []
        for _ in range(2):  # cold device, then the same device warm
            got = device_shingle_pass(graph.indptr, graph.indices, config,
                                      device, kernel="fused", trial_chunk=2,
                                      plan=plan)
            assert got == ref
            counts.append({name: (v["launches"], v["elements"])
                           for name, v in device.kernel_stats.items()})
        # The warm pass launches exactly what the cold one did.
        first, total = counts
        assert set(first) == set(total)
        for name, (launches, elements) in first.items():
            assert total[name] == (2 * launches, 2 * elements)
