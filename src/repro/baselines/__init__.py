"""Comparator clustering methods.

* :func:`gos_kneighbor_clustering` — the GOS project's k-neighbor linkage
  (Yooseph et al. 2007), the method Table III/IV compares gpClust against;
* :func:`jaccard_bruteforce_clustering` — the quadratic pairwise
  neighborhood-Jaccard method Section III-B motivates Shingling against.

Single linkage (one cluster per connected component, pClust's
decomposition step) is :func:`repro.graph.components.connected_components`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "gos_kneighbor_clustering": ".gos_kneighbor",
    "jaccard_bruteforce_clustering": ".jaccard",
    "jaccard_matrix": ".jaccard",
    "shared_neighbor_counts": ".gos_kneighbor",
})
