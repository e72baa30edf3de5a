"""Import budget: a run loads only what it needs, and loads it at set-up.

Package ``__init__`` files resolve their exports lazily (``repro._lazy``),
so a process that clusters a graph or builds a homology graph must not
pay for SciPy, the baselines, the evaluation code or the trace analytics.
The converse also holds: modules on the timed path import their
dependencies at top level, so the first call loads no module that set-up
did not already load (NumPy's lazy ``numpy.ma`` aside).

Each check runs in a fresh interpreter, since this test process has long
since imported everything.
"""

from __future__ import annotations

import pytest

from tests.conftest import run_isolated

#: What the benchmark's workload and worker modules import.
RUN_IMPORTS = ("import repro.core.params, repro.core.pipeline, repro.graph.io, "
               "repro.sequence.alphabet, repro.sequence.fasta, "
               "repro.sequence.homology, repro.obs")

#: Modules a clustering or homology run must never load.
FORBIDDEN = ("scipy", "repro.baselines", "repro.eval", "repro.synthdata",
             "repro.pipeline", "repro.obs.analysis", "repro.obs.ledger")

#: NumPy loads ``numpy.ma`` lazily from ``np.unique``; a homology call's
#: first ``np.unique`` pays for it (~15 ms), the one import set-up leaves.
NUMPY_LAZY = ("numpy.ma", "numpy.ma.core", "numpy.ma.extras")

#: Modules only the ``generate``, ``stats`` and ``compare`` commands use.
CLI_DEFERRED = ("repro.eval.confusion", "repro.eval.density",
                "repro.eval.partition", "repro.graph.stats",
                "repro.sequence.generator", "repro.synthdata.planted")


def _loaded(names) -> str:
    return f"[m for m in {tuple(names)!r} if m in sys.modules]"


def test_run_imports_skip_unused_packages():
    out = run_isolated(f"""
        import json, sys
        {RUN_IMPORTS}
        print(json.dumps({_loaded(FORBIDDEN)}))
    """)
    assert out == []


def test_first_calls_import_nothing():
    """Set-up pays for every module; the cold calls import nothing new."""
    out = run_isolated(f"""
        import json, sys
        import numpy as np
        {RUN_IMPORTS}
        from repro.core.params import ShinglingParams
        from repro.core.pipeline import GpClust
        from repro.graph.csr import CSRGraph
        from repro.sequence.homology import (HomologyConfig,
                                             build_homology_graph)

        def modules():
            return set(sys.modules)

        # A small planted graph: dense blocks plus sparse cross edges.
        rng = np.random.default_rng(0)
        block = rng.integers(0, 8, size=400)
        u = rng.integers(0, 400, size=6000)
        v = rng.integers(0, 400, size=6000)
        keep = (u != v) & ((block[u] == block[v]) | (rng.random(6000) < 0.02))
        graph = CSRGraph.from_edges(np.stack([u[keep], v[keep]], axis=1),
                                    n_vertices=400)
        # Protein families: point mutants of a few random ancestors.
        sequences = []
        for _ in range(6):
            ancestor = rng.integers(0, 20, size=90).astype(np.uint8)
            for _ in range(5):
                child = ancestor.copy()
                hit = rng.random(child.size) < 0.1
                child[hit] = rng.integers(0, 20, size=int(hit.sum()))
                sequences.append(child)

        before = modules()
        result = GpClust(ShinglingParams()).run(graph)
        after_cluster = modules()
        homology = build_homology_graph(sequences, HomologyConfig())
        after_homology = modules()
        print(json.dumps({{
            "cluster": sorted(after_cluster - before),
            "homology": sorted(after_homology - after_cluster),
            "clusters": int(result.n_clusters(min_size=2)),
            "edges": int(homology.n_edges),
        }}))
    """)
    assert out["cluster"] == []
    assert [m for m in out["homology"] if m not in NUMPY_LAZY] == []
    # The calls did real work, so the check covers their code paths.
    assert out["clusters"] > 0
    assert out["edges"] > 0


def test_cli_import_defers_command_modules():
    out = run_isolated(f"""
        import json, sys
        import repro.cli
        print(json.dumps({_loaded(("scipy",) + CLI_DEFERRED)}))
    """)
    assert out == []


@pytest.mark.parametrize("package", ["repro.sequence", "repro.obs"])
def test_package_import_loads_no_submodule(package):
    out = run_isolated(f"""
        import json, sys
        import {package}
        print(json.dumps(sorted(m for m in sys.modules
                                if m.startswith("{package}."))))
    """)
    assert out == []
