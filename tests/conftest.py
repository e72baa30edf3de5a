"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregate import set_debug_checks
from repro.core.params import ShinglingParams
from repro.core.pipeline import GpClust, cluster_graph
from repro.device.device import SimulatedDevice
from repro.device.group import DeviceGroup
from repro.graph.csr import CSRGraph
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


def cluster_via(how: str, graph: CSRGraph, params: ShinglingParams):
    """Cluster ``graph`` on the device pipeline, reached one of three ways.

    ``"auto"``: :class:`GpClust` provisions its own device (or device
    group) from ``params``.  ``"device"``: the caller builds a fresh device
    of the same shape and hands it in.  ``"host"``: the one-call
    :func:`cluster_graph` API.
    """
    if how == "auto":
        return GpClust(params).run(graph)
    if how == "device":
        device = (DeviceGroup(params.devices) if params.devices > 1
                  else SimulatedDevice())
        return GpClust(params).run(graph, device=device)
    if how == "host":
        return cluster_graph(graph, params)
    raise ValueError(f"unknown way to reach the pipeline {how!r}")
