"""Quality evaluation: the measurements of Section IV-D.

* :class:`Partition` — a clustering over a fixed vertex universe, with the
  paper's ``size >= 20`` reporting filter;
* :func:`pair_confusion` + :class:`QualityScores` — pairwise TP/FP/FN/TN
  classification and the derived PPV/NPV/SP/SE (Equations 2-5, Table III);
* :func:`cluster_densities` — intra-cluster density (Equation 6);
* :func:`size_distribution` — the Figure 5 group-size and sequence-count
  histograms;
* :func:`partition_stats` — the Table IV partition statistics.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ComparisonReport": ".report",
    "FIG5_BINS": ".distribution",
    "MethodReport": ".report",
    "PairConfusion": ".confusion",
    "Partition": ".partition",
    "QualityScores": ".confusion",
    "adjusted_rand_index": ".external",
    "cluster_densities": ".density",
    "density_summary": ".density",
    "normalized_mutual_information": ".external",
    "pair_confusion": ".confusion",
    "pair_f1": ".external",
    "partition_stats": ".partition",
    "purity": ".external",
    "quality_scores": ".confusion",
    "size_distribution": ".distribution",
})
