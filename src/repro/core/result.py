"""Clustering result container."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.params import REPORT_OVERLAPPING, REPORT_PARTITION, ShinglingParams
from repro.util.timer import TimeBreakdown


@dataclass
class ClusterResult:
    """Output of one clustering run (serial or device-backed).

    Exactly one of ``labels`` (partition mode) / ``overlapping`` (overlapping
    mode) is set, matching ``params.report_mode``.
    """

    n_vertices: int
    params: ShinglingParams
    backend: str                                  # "serial" or "device"
    labels: np.ndarray | None = None
    overlapping: list[np.ndarray] | None = None
    timings: TimeBreakdown = field(default_factory=TimeBreakdown)
    n_first_level_shingles: int = 0

    def __post_init__(self) -> None:
        if self.params.report_mode == REPORT_PARTITION:
            if self.labels is None or self.overlapping is not None:
                raise ValueError("partition mode requires labels only")
            if self.labels.shape != (self.n_vertices,):
                raise ValueError("labels must have one entry per vertex")
        elif self.params.report_mode == REPORT_OVERLAPPING:
            if self.overlapping is None or self.labels is not None:
                raise ValueError("overlapping mode requires cluster list only")

    # ------------------------------------------------------------------ #
    # Cluster accessors
    # ------------------------------------------------------------------ #

    def clusters(self, min_size: int = 1) -> list[np.ndarray]:
        """Clusters as vertex-id arrays, filtered to ``size >= min_size``.

        The paper's quality study uses ``min_size=20`` ("only clusters of
        size >= 20 ... for the qualitative assessment").
        """
        if self.overlapping is not None:
            return [c for c in self.overlapping if c.size >= min_size]
        assert self.labels is not None
        order = np.argsort(self.labels, kind="stable")
        sorted_labels = self.labels[order]
        boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
        groups = np.split(order, boundaries)
        return [np.sort(g) for g in groups if g.size >= min_size]

    def cluster_sizes(self, min_size: int = 1) -> np.ndarray:
        """Sizes of clusters with ``size >= min_size``, descending."""
        if self.overlapping is not None:
            sizes = np.array([c.size for c in self.overlapping], dtype=np.int64)
        else:
            assert self.labels is not None
            sizes = np.bincount(self.labels)
        sizes = sizes[sizes >= min_size]
        return np.sort(sizes)[::-1]

    def n_clusters(self, min_size: int = 1) -> int:
        return int(self.cluster_sizes(min_size=min_size).size)

    def n_clustered_vertices(self, min_size: int = 2) -> int:
        """Vertices recruited into clusters of at least ``min_size``."""
        if self.overlapping is not None:
            members = [c for c in self.overlapping if c.size >= min_size]
            if not members:
                return 0
            return int(np.unique(np.concatenate(members)).size)
        assert self.labels is not None
        sizes = np.bincount(self.labels)
        return int(sizes[sizes >= min_size].sum())

    def summary(self) -> dict:
        """Headline numbers for logs and benchmark reports."""
        sizes = self.cluster_sizes(min_size=2)
        return {
            "backend": self.backend,
            "n_vertices": self.n_vertices,
            "n_clusters(>=2)": int(sizes.size),
            "largest_cluster": int(sizes[0]) if sizes.size else 0,
            "n_first_level_shingles": self.n_first_level_shingles,
            "total_seconds": self.timings.total,
        }
