"""Clustering state is run-scoped: no result or counter depends on what ran
earlier in the process.

Two back-to-back ``GpClust(params).run(graph)`` calls in one process must
produce the same labels, the same per-kernel launch/element/modeled-second
counters and the same modeled GPU seconds as each other, and as a fresh
interpreter running the same call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro
from repro.core.params import ShinglingParams
from repro.core.pipeline import GpClust
from repro.device.device import SimulatedDevice
from repro.synthdata.planted import PlantedFamilyConfig, planted_family_graph
from repro.util.timer import BUCKET_GPU

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
