"""Graph substrate: CSR storage, union-find, components, statistics, I/O.

The Shingling pipeline consumes undirected similarity graphs in adjacency-list
(CSR) form and produces bipartite shingle graphs; both live here, along with
the connected-component and union-find machinery used by Phase III of the
algorithm and by the evaluation code.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "BipartiteCSR": ".bipartite",
    "CSRGraph": ".csr",
    "GraphStats": ".stats",
    "UnionFind": ".unionfind",
    "core_filter": ".kcore",
    "core_numbers": ".kcore",
    "k_core": ".kcore",
    "compute_graph_stats": ".stats",
    "connected_components": ".components",
    "largest_component_size": ".components",
    "load_edge_list": ".io",
    "load_npz": ".io",
    "save_edge_list": ".io",
    "save_npz": ".io",
    "timed_load": ".io",
})
