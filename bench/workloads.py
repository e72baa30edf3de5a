"""The benchmark's four workloads: how each input is made, loaded and run.

Every workload starts from one fixed base input built by the program's own
generators.  ``--seed`` then relabels it with seeded random permutations:
graph vertices get new ids, FASTA records a new order.  The input's size and
shape (degree sequence, candidate pairs, alignment lengths) are the same for
every seed, so timings from different seeds are comparable, while every id
the program sees, and so every min-hash it picks, changes with the seed.
Real data has no meaningful id order either: the generators number vertices
family by family, which no survey does.

The timed calls go through the program's public entry points only:
``load_npz`` or ``read_fasta`` + ``encode`` to load, ``build_homology_graph``
with ``HomologyConfig()`` and ``GpClust(params).run`` to compute.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.params import ShinglingParams
from repro.core.pipeline import GpClust
from repro.graph.csr import CSRGraph
from repro.graph.io import load_npz, save_npz
from repro.obs import get_obs
from repro.sequence.alphabet import decode, encode
from repro.sequence.fasta import read_fasta, write_fasta
from repro.sequence.homology import HomologyConfig, build_homology_graph

GRAPH = "graph"
SEQUENCES = "sequences"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``generate`` returns the base input (a :class:`CSRGraph` or a list of
    encoded sequences) and its planted family label per vertex, or ``None``
    when the input has no planted families.  ``params`` overrides
    :class:`ShinglingParams` defaults; empty means the CLI defaults.
    """

    name: str
    kind: str
    generate: Callable[[], tuple[object, np.ndarray | None]]
    params: dict

    def shingling(self) -> ShinglingParams:
        return ShinglingParams(**self.params)

    def make_inputs(self, seed: int, count: int, directory: Path
                    ) -> list[tuple[Path, np.ndarray | None]]:
        """Write the seed's ``count`` input files; returns each with its
        family labels."""
        base, truth = self.generate()
        n = base.n_vertices if self.kind == GRAPH else len(base)
        out = []
        for i in range(count):
            # Position j of input i holds item perm[j] of the base input.
            perm = np.random.default_rng([seed, i]).permutation(n)
            if self.kind == GRAPH:
                new_id = np.empty(n, dtype=np.int64)
                new_id[perm] = np.arange(n)
                path = directory / f"input-{i}.npz"
                save_npz(CSRGraph.from_edges(new_id[base.edges()],
                                             n_vertices=n), path)
            else:
                path = directory / f"input-{i}.fasta"
                write_fasta([(f"seq{j}", decode(base[k]))
                             for j, k in enumerate(perm.tolist())], path)
            out.append((path, None if truth is None else truth[perm]))
        return out

    def load(self, path: Path):
        """Load an input file through the program's loaders."""
        if self.kind == GRAPH:
            return load_npz(path)
        return [encode(seq) for _, seq in read_fasta(path)]

    def run(self, data, params: ShinglingParams | None = None,
            homology: HomologyConfig | None = None) -> np.ndarray:
        """One call: (homology graph, then) clustering; returns the labels.

        Each public call sits in its own ``bench.*`` span, a no-op unless
        the caller observes the run.
        """
        tracer = get_obs().tracer
        graph = data
        if self.kind == SEQUENCES:
            with tracer.span("bench.homology"):
                graph = build_homology_graph(
                    data, homology or HomologyConfig()).graph
        with tracer.span("bench.clustering"):
            return GpClust(params or self.shingling()).run(graph).labels


def label_digest(labels: np.ndarray) -> str:
    """Digest of a label vector: equal digests mean identical clusterings."""
    data = np.ascontiguousarray(labels, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()


# The generators are imported inside these functions so a worker's set-up
# time counts only the modules the timed calls need.

def _planted_2m():
    from repro.pipeline.workloads import SCALE_SMALL, make_runtime_workload

    planted = make_runtime_workload("2m", SCALE_SMALL, seed=20130520)
    return planted.graph, planted.family_labels


def _rmat_16():
    from repro.pipeline.workloads import SCALE_SMALL, make_large_workload

    return make_large_workload(SCALE_SMALL, seed=7), None


def _seqs_full():
    from repro.pipeline.workloads import SCALE_SMALL, make_homology_workload

    proteins, _ = make_homology_workload(SCALE_SMALL, seed=101)
    return proteins.sequences, proteins.family_labels


def _seqs_fragments():
    from repro.sequence.generator import (SequenceFamilyConfig,
                                          generate_protein_families)

    proteins = generate_protein_families(
        SequenceFamilyConfig(n_families=200, family_size_median=16,
                             fragment=True, singleton_fraction=1.0),
        seed=101)
    return proteins.sequences, proteins.family_labels


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("planted-2m", GRAPH, _planted_2m, {"c1": 100, "c2": 50}),
    Workload("rmat-16", GRAPH, _rmat_16, {"c1": 16, "c2": 8}),
    Workload("seqs-full", SEQUENCES, _seqs_full, {}),
    Workload("seqs-fragments", SEQUENCES, _seqs_fragments, {}),
)}
