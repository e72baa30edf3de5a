#!/usr/bin/env python
"""Method comparison: gpClust vs. GOS k-neighbor vs. single linkage.

Reproduces the paper's Section IV-D comparison in miniature: all methods
cluster the calibrated planted-family benchmark, and are scored against the
ground-truth families on pairwise precision/recall and cluster density.
The GOS baseline runs on its own pipeline's (more sensitive) edge view, as
in the original study; density is evaluated on the shared pGraph-analog
graph for everyone.

Run:  python examples/method_comparison.py
"""

from __future__ import annotations

from repro import GpClust, ShinglingParams
from repro.baselines import gos_kneighbor_clustering
from repro.eval import (
    Partition,
    density_summary,
    partition_stats,
    quality_scores,
    size_distribution,
)
from repro.graph.components import connected_components
from repro.synthdata import PlantedFamilyConfig, planted_family_graph
from repro.util.tables import format_percent, format_table


def main() -> None:
    planted = planted_family_graph(PlantedFamilyConfig(n_families=40), seed=11)
    graph = planted.graph
    benchmark = Partition(planted.family_labels)
    print(f"benchmark: {graph.n_vertices} sequences, {graph.n_edges} edges, "
          f"{planted.config.n_families} true families")

    partitions = {
        "gpClust": Partition(
            GpClust(ShinglingParams(c1=100, c2=50, seed=5)).run(graph).labels),
        "GOS k-neighbor (k=10)": Partition(
            gos_kneighbor_clustering(planted.gos_graph, k=10)),
        "single linkage": Partition(connected_components(graph)),
    }

    rows = []
    for name, part in partitions.items():
        qs = quality_scores(part, benchmark, min_size=20)
        st = partition_stats(part, name, min_size=20)
        dens = density_summary(graph, part, min_size=20)
        rows.append([
            name,
            format_percent(qs.ppv),
            format_percent(qs.sensitivity),
            str(st.n_groups),
            f"{st.n_sequences:,}",
            f"{dens[0]:.2f} ± {dens[1]:.2f}",
        ])
    print()
    print(format_table(
        ["method", "PPV", "SE", "#clusters(>=20)", "#seqs", "density"],
        rows, title="Method comparison vs. ground-truth families"))

    # Figure 5-style size distribution for the two main contenders.
    print()
    dist_rows = []
    d_gp = size_distribution(partitions["gpClust"])
    d_gos = size_distribution(partitions["GOS k-neighbor (k=10)"])
    for label, a, b in zip(d_gp.labels(), d_gp.group_counts,
                           d_gos.group_counts):
        dist_rows.append([label, str(a), str(b)])
    print(format_table(["size bin", "gpClust groups", "GOS groups"],
                       dist_rows, title="Group-size distribution (Fig. 5a)"))


if __name__ == "__main__":
    main()
