"""Clustering state is run-scoped: no result or counter depends on what ran
earlier in the process.

Two back-to-back ``GpClust(params).run(graph)`` calls in one process must
produce the same labels, the same per-kernel launch/element/modeled-second
counters and the same modeled GPU seconds as each other, and as a fresh
interpreter running the same call.  Every cluster labeling and PassResult
must equal the serial reference on a cold start and on every warm re-run —
one device reused, or one process running the pipeline again — across
execution modes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.device_exec import device_shingle_pass
from repro.core.params import ShinglingParams
from repro.core.pipeline import GpClust, SerialPClust
from repro.core.serial import serial_shingle_pass
from repro.device.device import SimulatedDevice
from repro.sequence.generator import (SequenceFamilyConfig,
                                      generate_protein_families)
from repro.sequence.homology import HomologyConfig, build_homology_graph
from repro.synthdata.planted import PlantedFamilyConfig, planted_family_graph
from repro.util.timer import BUCKET_GPU
from tests.conftest import schedule

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(repro.__file__).resolve().parents[1]


def _call_in_process() -> dict:
    """One clustering call on a fresh device, as plain JSON-able data."""
    graph = planted_family_graph(PlantedFamilyConfig(n_families=8),
                                 seed=11).graph
    device = SimulatedDevice()
    result = GpClust(ShinglingParams(c1=12, c2=6, trial_chunk=4)).run(
        graph, device=device)
    return {"labels": result.labels.tolist(),
            "kernels": device.profile()["kernels"],
            "modeled_gpu_s": result.timings.get_modeled(BUCKET_GPU)}


def test_back_to_back_runs_identical():
    first = _call_in_process()
    second = _call_in_process()
    assert first["labels"] == second["labels"]
    assert first["kernels"] == second["kernels"]
    assert first["modeled_gpu_s"] == second["modeled_gpu_s"]
    assert np.unique(first["labels"]).size > 1


def test_homology_backend_choice_is_run_scoped():
    """``auto`` resolves from the config and the input alone: a ``host``
    run and ``auto`` runs on another input earlier in the process change
    neither the backend nor the graph of a later call."""
    fixed = generate_protein_families(
        SequenceFamilyConfig(n_families=4, family_size_median=8.0),
        seed=2).sequences
    other = generate_protein_families(
        SequenceFamilyConfig(n_families=6, family_size_median=10.0),
        seed=5).sequences
    first = build_homology_graph(fixed, HomologyConfig())
    for earlier in (HomologyConfig(align_backend="host"), HomologyConfig(),
                    HomologyConfig(n_jobs=2)):
        build_homology_graph(other, earlier)
        again = build_homology_graph(fixed, HomologyConfig())
        assert again.align_backend == first.align_backend == "local"
        assert np.array_equal(again.graph.indptr, first.graph.indptr)
        assert np.array_equal(again.graph.indices, first.graph.indices)
        assert np.array_equal(again.normalized_scores,
                              first.normalized_scores)


def test_fresh_process_matches_warm_process():
    _call_in_process()  # warm this process up first
    warm = _call_in_process()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(ROOT), env.get("PYTHONPATH")]))
    call = ("import json; from tests.test_run_scoped import _call_in_process; "
            "print(json.dumps(_call_in_process()))")
    out = subprocess.run([sys.executable, "-c", call], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    fresh = json.loads(out.stdout.strip().splitlines()[-1])
    assert fresh["labels"] == warm["labels"]
    assert fresh["kernels"] == warm["kernels"]
    assert fresh["modeled_gpu_s"] == warm["modeled_gpu_s"]


@pytest.fixture(scope="module")
def planted():
    return planted_family_graph(PlantedFamilyConfig(n_families=8), seed=11)


@pytest.fixture(scope="module")
def serial_labels(planted):
    return SerialPClust(BASE).run(planted.graph).labels


BASE = ShinglingParams(s1=2, c1=8, s2=2, c2=6, trial_chunk=2)


def _labels(graph, label="sync"):
    params, spec = schedule(label, BASE)
    return GpClust(params, spec).run(graph).labels


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
            got = _labels(planted.graph, exec_mode)
            assert np.array_equal(got, serial_labels)

    def test_pass_result_identical_warm_replay(self, planted):
        graph = planted.graph
        config = BASE.pass_config(1)
        ref = serial_shingle_pass(graph.indptr, graph.indices, config)
        device = SimulatedDevice()
        counts = []
        for _ in range(2):  # cold device, then the same device warm
            got = device_shingle_pass(graph.indptr, graph.indices, config,
                                      device, kernel="fused", trial_chunk=2,
                                      streams=BASE.streams)
            assert got == ref
            counts.append({name: (v["launches"], v["elements"])
                           for name, v in device.kernel_stats.items()})
        # The warm pass launches exactly what the cold one did.
        first, total = counts
        assert set(first) == set(total)
        for name, (launches, elements) in first.items():
            assert total[name] == (2 * launches, 2 * elements)


def _random_pass(rng, n_seg, max_len, n_values):
    # Valid CSR adjacency: neighbor ids are unique within a segment (the
    # per-segment hash table relies on that, like real adjacency lists).
    lengths = rng.integers(0, min(max_len, n_values) + 1, n_seg)
    indptr = np.zeros(n_seg + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    elements = np.concatenate([
        rng.choice(n_values, size=length, replace=False)
        for length in lengths
    ] or [np.empty(0)]).astype(np.int64)
    return indptr, elements


def _counts(device):
    return {name: (v["launches"], v["elements"])
            for name, v in device.kernel_stats.items()}


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_repeated_shape_replays_stay_identical(seed, trial_chunk):
    """Same shape re-run many times on one device: all runs equal."""
    rng = np.random.default_rng(seed)
    indptr, elements = _random_pass(rng, 10, 6, 40)
    params = ShinglingParams(s1=2, c1=8, s2=2, c2=6, seed=int(seed % 997),
                             trial_chunk=trial_chunk)
    config = params.pass_config(1)

    ref = serial_shingle_pass(indptr, elements, config)
    device = SimulatedDevice()
    first = None
    for run in range(1, 5):
        got = device_shingle_pass(indptr, elements, config, device,
                                  kernel="fused", trial_chunk=trial_chunk)
        assert got == ref
        if first is None:
            first = _counts(device)
        assert _counts(device) == {
            name: (run * launches, run * elements_)
            for name, (launches, elements_) in first.items()}
