"""repro — reproduction of "GPU-Accelerated Protein Family Identification
for Metagenomics" (Wu & Kalyanaraman, IPDPSW 2013).

The package implements the paper's gpClust system and every substrate it
depends on:

* :mod:`repro.core` — the two-pass Shingling clustering heuristic, serial
  and device-backed;
* :mod:`repro.device` — the simulated GPU (memory, transfers, kernels,
  batching);
* :mod:`repro.graph` — CSR graphs, union-find, connected components, stats;
* :mod:`repro.synthdata` — planted-family benchmark graph generation;
* :mod:`repro.sequence` — protein sequences, Smith-Waterman, homology graph
  construction (the pGraph analogue);
* :mod:`repro.baselines` — the GOS k-neighbor comparator and friends;
* :mod:`repro.eval` — pair-counting quality metrics, density, distributions;
* :mod:`repro.pipeline` — end-to-end workloads used by the benchmarks.

Quickstart::

    import repro
    graph = repro.synthdata.planted_family_graph(
        repro.synthdata.PlantedFamilyConfig(n_families=30), seed=1).graph
    result = repro.cluster_graph(graph, repro.ShinglingParams(c1=40, c2=20))
    print(result.summary())
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CSRGraph": ".graph.csr",
    "ClusterResult": ".core.result",
    "DeviceSpec": ".device.timingmodels",
    "GpClust": ".core.pipeline",
    "SerialPClust": ".core.pipeline",
    "ShinglingParams": ".core.params",
    "SimulatedDevice": ".device.device",
    "baselines": ".baselines",
    "cluster_by_components": ".core.decompose",
    "cluster_graph": ".core.pipeline",
    "eval": ".eval",
    "pipeline": ".pipeline",
    "sequence": ".sequence",
    "synthdata": ".synthdata",
})
__all__.append("__version__")
