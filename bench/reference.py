"""Reference outputs for the benchmark's correctness check.

    python bench/reference.py prepare --workload NAME --seed N --dir DIR
    python bench/reference.py serial --workload NAME [--seed N]
    python bench/reference.py write

``prepare`` (run by ``bench/run.py`` before any timing) writes the seed's
:data:`INPUTS_PER_SEED` input files into DIR, computes the reference labels
of each and prints one JSON line: per input its path, the labels digest
every timed call on it must reproduce, and the Table-III analogue (PPV and
sensitivity against the planted families, clusters of size >= 3).

The reference for an arbitrary seed comes from a second path of the
program that shares none of the timed path's launch-graph replay, device
aggregation, device connected components or device alignment: host
aggregation and Phase III, eager kernel launches, and for sequence
workloads the ``host`` alignment backend.  It still shares the fused
shingle kernel.  The serial oracle ``SerialPClust`` shares only the hash
family and the Phase III report with the timed path, but takes 6-50 s per
input, too long to run before every timed run, so it fixes the digests of
the default seed instead: ``write`` recomputes them into
``bench/references.json``, and ``prepare`` fails the run when the second
path disagrees with them.  ``serial`` prints the oracle's digests for any
seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core.params import ShinglingParams
from repro.core.pipeline import SerialPClust
from repro.eval.confusion import quality_scores
from repro.eval.partition import Partition
from repro.sequence.homology import HomologyConfig, build_homology_graph

from workloads import GRAPH, WORKLOADS, Workload, label_digest

BENCH = Path(__file__).resolve().parent
REFERENCES = BENCH / "references.json"
WORK = BENCH.parent / ".bench_work"
DEFAULT_SEED = 0
MIN_CLUSTER_SIZE = 3

#: Inputs per seed.  The work a call does varies with the input's ids (the
#: warm wall of six relabellings of rmat-16 spans 7%), so a run alternates
#: sessions over more than one and reports medians over them.
INPUTS_PER_SEED = 2

#: The second path.  Options a later version of the program drops are
#: skipped, so removing one does not break the benchmark.
REFERENCE_OVERRIDES = {"aggregate_backend": "host", "launch_graph": "off"}
HOST_HOMOLOGY = HomologyConfig(align_backend="host")


def reference_params(params: ShinglingParams) -> ShinglingParams:
    known = {f.name for f in dataclasses.fields(params)}
    return params.with_overrides(**{k: v for k, v in REFERENCE_OVERRIDES.items()
                                    if k in known})


def reference_labels(workload: Workload, data) -> np.ndarray:
    return workload.run(data, reference_params(workload.shingling()),
                        HOST_HOMOLOGY)


def serial_labels(workload: Workload, data) -> np.ndarray:
    graph = data
    if workload.kind != GRAPH:
        graph = build_homology_graph(data, HOST_HOMOLOGY).graph
    return SerialPClust(workload.shingling()).run(graph).labels


def quality(labels: np.ndarray, truth: np.ndarray | None) -> dict:
    """PPV and sensitivity against the planted families.

    An input without planted families (R-MAT) is scored against the
    reference partition itself, so both read 1.0 whenever the output check
    passes.
    """
    benchmark = Partition(labels if truth is None else truth)
    scores = quality_scores(Partition(labels), benchmark,
                            min_size=MIN_CLUSTER_SIZE)
    return {"ppv": scores.ppv, "se": scores.sensitivity}


def committed_digests() -> dict[str, list[str]]:
    return json.loads(REFERENCES.read_text())["digests"]


def prepare(name: str, seed: int, directory: Path) -> dict:
    workload = WORKLOADS[name]
    inputs = []
    for path, truth in workload.make_inputs(seed, INPUTS_PER_SEED, directory):
        labels = reference_labels(workload, workload.load(path))
        inputs.append({"input": str(path), "digest": label_digest(labels),
                       **quality(labels, truth)})
    committed_match = (seed != DEFAULT_SEED or committed_digests().get(name)
                       == [i["digest"] for i in inputs])
    return {"inputs": inputs, "committed_match": committed_match}


def serial_digests(name: str, seed: int) -> list[str]:
    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="serial-", dir=WORK))
    try:
        return [label_digest(serial_labels(workload, workload.load(path)))
                for path, _ in workload.make_inputs(seed, INPUTS_PER_SEED,
                                                    directory)]
    finally:
        shutil.rmtree(directory)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("prepare", help="write a seed's inputs and references")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", type=Path, required=True)
    s = sub.add_parser("serial", help="print the serial oracle's digests")
    s.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_parser("write", help="recompute bench/references.json with the "
                                 "serial oracle (several minutes)")
    args = parser.parse_args(argv)

    if args.command == "prepare":
        print(json.dumps(prepare(args.workload, args.seed, args.dir)))
    elif args.command == "serial":
        print("\n".join(serial_digests(args.workload, args.seed)))
    else:
        digests = {}
        for name in WORKLOADS:
            digests[name] = serial_digests(name, DEFAULT_SEED)
            print(f"{name}: {' '.join(digests[name])}", flush=True)
        REFERENCES.write_text(json.dumps({
            "seed": DEFAULT_SEED,
            "oracle": "SerialPClust; host alignment on sequence workloads",
            "digests": digests}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
