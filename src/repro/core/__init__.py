"""The paper's primary contribution: two-pass Shingling clustering.

Public entry points:

* :func:`cluster_graph` — one-call clustering of a similarity graph;
* :class:`GpClust` / :class:`SerialPClust` — the device-backed and serial
  pipeline drivers;
* :class:`ShinglingParams` — algorithm parameters (paper defaults).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ClusterResult": ".result",
    "GpClust": ".pipeline",
    "PassConfig": ".params",
    "PassResult": ".passresult",
    "SerialPClust": ".pipeline",
    "ShinglingParams": ".params",
    "canonicalize_labels": ".decompose",
    "cluster_by_components": ".decompose",
    "cluster_graph": ".pipeline",
    "device_shingle_pass": ".device_exec",
    "estimate_jaccard": ".minhash",
    "estimate_jaccard_matrix": ".minhash",
    "exact_jaccard": ".minhash",
    "minhash_signatures": ".minhash",
    "overlapping_clusters": ".report",
    "partition_labels": ".report",
    "report_clusters": ".report",
    "serial_shingle_pass": ".serial",
})
