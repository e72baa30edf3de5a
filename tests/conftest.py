"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.core.aggregate import set_debug_checks
from repro.core.params import ShinglingParams
from repro.core.pipeline import GpClust, cluster_graph
from repro.device.device import SimulatedDevice
from repro.device.timingmodels import DeviceSpec
from repro.graph.csr import CSRGraph
from repro.sequence import homology
from repro.synthdata.planted import PlantedFamilyConfig, planted_family_graph


@pytest.fixture(autouse=True)
def _force_debug_checks():
    """Debug-mode sanity checks are off by default; the suite always runs them."""
    previous = set_debug_checks(True)
    yield
    set_debug_checks(previous)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20130520)


@pytest.fixture
def triangle_graph() -> CSRGraph:
    """K3: the smallest graph where every vertex can shingle with s=2."""
    return CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def two_cliques_graph() -> CSRGraph:
    """Two disjoint K5s — two obvious dense subgraphs."""
    edges = []
    for base in (0, 5):
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((base + i, base + j))
    return CSRGraph.from_edges(edges, n_vertices=10)


@pytest.fixture
def path_graph() -> CSRGraph:
    """P6: a path, no dense structure at all."""
    return CSRGraph.from_edges([(i, i + 1) for i in range(5)])


def random_blocky_graph(seed: int = 3, n: int = 150, n_blocks: int = 4,
                        block: int = 18, p: float = 0.8,
                        n_noise: int = 120) -> CSRGraph:
    """A graph with disjoint planted dense blocks plus random noise edges."""
    rng = np.random.default_rng(seed)
    edges = []
    perm = rng.permutation(n)
    for b in range(n_blocks):
        vs = perm[b * block:(b + 1) * block]
        for i in range(block):
            for j in range(i + 1, block):
                if rng.random() < p:
                    edges.append((int(vs[i]), int(vs[j])))
    noise = rng.integers(0, n, size=(n_noise, 2))
    edges += [(int(a), int(b)) for a, b in noise if a != b]
    return CSRGraph.from_edges(np.asarray(edges, dtype=np.int64), n_vertices=n)


def disjoint_cliques(n_cliques: int = 3, size: int = 5) -> CSRGraph:
    """Disjoint ``size``-cliques.  Every pass II list lies in one clique;
    with enough first-level trials (``c1 = 10`` does at ``s1 = 2``) the
    members fold joins each clique before the first round, so a direct
    pass II finds every list settled and runs no round."""
    edges = [(c * size + i, c * size + j) for c in range(n_cliques)
             for i in range(size) for j in range(i + 1, size)]
    return CSRGraph.from_edges(np.asarray(edges, dtype=np.int64),
                               n_vertices=n_cliques * size)


@pytest.fixture
def blocky_graph() -> CSRGraph:
    return random_blocky_graph()


@pytest.fixture
def small_params() -> ShinglingParams:
    """Trial counts small enough for the pure-Python serial reference."""
    return ShinglingParams(c1=20, c2=10, seed=9)


@pytest.fixture(scope="session")
def planted_small():
    """A small calibrated planted-family instance (session-cached)."""
    return planted_family_graph(
        PlantedFamilyConfig(n_families=12, family_size_median=90.0), seed=5)


#: Labels of the pass schedules the equivalence tests sweep.  ``sync`` is one
#: stream; ``prefetch`` is one stream at half the element budget (what the
#: retired double-buffered mode ran once its upload thread was gone);
#: ``multistream`` is three concurrent streams.
SCHEDULES = ("sync", "prefetch", "multistream")


def schedule(label: str, params: ShinglingParams,
             spec: DeviceSpec | None = None
             ) -> tuple[ShinglingParams, DeviceSpec]:
    """``params`` and ``spec`` set up for the schedule named ``label``.

    ``prefetch`` halves the device memory, which halves the element budget
    derived from it.
    """
    spec = spec or DeviceSpec()
    if label == "prefetch":
        return params, replace(
            spec, memory_capacity_bytes=spec.memory_capacity_bytes // 2)
    if label == "multistream":
        return params.with_overrides(streams=3), spec
    if label != "sync":
        raise ValueError(f"unknown schedule {label!r}")
    return params, spec


def cluster_via(how: str, graph: CSRGraph, params: ShinglingParams,
                spec: DeviceSpec | None = None):
    """Cluster ``graph`` on the device pipeline, reached one of three ways.

    ``"auto"``: :class:`GpClust` provisions its own device.  ``"device"``:
    the caller builds a fresh device of the same spec and hands it in.  ``"host"``: the one-call
    :func:`cluster_graph` API.
    """
    if how == "auto":
        return GpClust(params, spec).run(graph)
    if how == "device":
        return GpClust(params, spec).run(graph,
                                         device=SimulatedDevice(spec))
    if how == "host":
        return cluster_graph(graph, params, device_spec=spec)
    raise ValueError(f"unknown way to reach the pipeline {how!r}")


@contextlib.contextmanager
def pool_alignment():
    """Let ``align_backend="auto"`` reach the process pool on tiny inputs.

    Drops the pairs-per-worker floor and reports at least two cores, so
    any ``n_jobs != 1`` resolves to the pool on every machine.
    """
    cores = max(os.cpu_count() or 1, 2)
    with mock.patch.object(homology, "MIN_POOL_PAIRS_PER_WORKER", 0), \
            mock.patch.object(homology.os, "cpu_count", lambda: cores):
        yield


def run_isolated(script: str, timeout: float = 300) -> dict:
    """Run ``script`` in a fresh interpreter; return its last stdout line
    parsed as JSON.

    The interpreter sees ``src/`` and the repository root (for
    ``tests.conftest``) and runs in its own process group.  A run that
    outlives ``timeout`` fails the test, and the whole group (pool
    workers too) is killed rather than left hanging.
    """
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.Popen([sys.executable, "-c", textwrap.dedent(script)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=root,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"still running after {timeout:.0f}s")
    assert proc.returncode == 0, stderr
    return json.loads(stdout.strip().splitlines()[-1])
