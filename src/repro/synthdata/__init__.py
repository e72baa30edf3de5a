"""Synthetic benchmark data: planted protein-family similarity graphs.

The paper's quality study uses ~2M GOS sequences with predicted protein
families as the benchmark; neither the sequences nor the families are
available.  This package generates similarity graphs with the same
*structure* and a known ground truth:

* heavy-tailed **families** (the benchmark partition: few huge, many small);
* each family contains one or more dense **cores** (what sequence-sequence
  methods can recover — the "core sets" of protein families) plus a loose
  **periphery** only profile-level methods would relate (modeled as sparse
  or absent edges), reproducing the paper's high-PPV / low-SE regime;
* multi-core families bridged by **hub** vertices, the structure that makes
  the fixed-k GOS linkage "group some highly-connected clusters into a
  relatively loosely-connected cluster";
* occasional **mis-attached periphery** (spurious-homology edges into a
  foreign family's core), the recruitment-vs-precision trade-off that keeps
  gpClust's PPV just under 100%.

Also provides generic random graphs (G(n,p), R-MAT) for scale testing.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "BenchmarkBundle": ".bundle",
    "PlantedFamilyConfig": ".planted",
    "PlantedGraph": ".planted",
    "gnp_graph": ".random_graphs",
    "load_bundle": ".bundle",
    "planted_family_graph": ".planted",
    "rmat_graph": ".random_graphs",
    "save_bundle": ".bundle",
})
