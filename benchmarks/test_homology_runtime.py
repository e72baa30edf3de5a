"""Homology-graph construction runtime — the per-backend breakdown.

pGraph parallelizes homology detection because alignment dominates its
cost; this benchmark reproduces that observation for our analogue and
measures every scoring backend on the same workload:

* **seed** — the original implementation, embedded below verbatim-in-spirit
  (per-sequence k-mer loop + ``np.split``/``triu_indices`` group expansion,
  anti-diagonal wavefront aligner, eager self-scores for every sequence);
* **host** — the current path at ``align_backend=host``, ``n_jobs=1``
  (vectorized seed filter, row-scan aligner, lazy self-scores);
* **pool** — ``n_jobs=4`` (sharded alignment over a shared-memory arena;
  the pairs-per-worker floor is lifted so the row is the pool on any host);
* **local** — ``n_jobs=1`` (``auto``'s in-process backend: the
  length-binned query-profile kernels of :mod:`repro.sequence.binned`);
* **auto** — ``n_jobs=0`` (all cores: the pool when every worker gets
  ``MIN_POOL_PAIRS_PER_WORKER`` pairs, else local).

Each variant reports per-stage wall clock (seed filter / self-scores /
alignment / graph build); all must produce the identical graph.  The
local row additionally reports ``padding_waste`` (wasted fraction of
padded DP cells, from the ``device.align.*`` metrics) and
``dp_cells_per_s`` (actual DP-cell throughput of its alignment stage).
The committed reference lives in BENCH_PR6.json: ``homology_rows`` guards
every row's ``total_s`` and ``device_alignment_rows`` guards the local
row's ``alignment_s`` and ``padding_waste``
(``scripts/check_perf_guard.py --reference-key ... [--metric ...]``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time
from unittest import mock

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.obs import observe, use_obs
from repro.pipeline.workloads import make_homology_workload
from repro.sequence.kmer_filter import kmer_codes
from repro.sequence.scoring import BLOSUM62
from repro.sequence.smith_waterman import _extended_matrix, self_score
from repro.sequence import homology
from repro.sequence.homology import build_homology_graph, choose_align_backend
from repro.util.tables import format_table, table_payload

REPEATS = 2  # best-of; warm timings only
#: Alternating runs of ``auto`` and the best fixed row behind their
#: median comparison.
ALTERNATING_REPEATS = 5
PARALLEL_JOBS = 4

STAGES = ["seed_filter_s", "self_scores_s", "alignment_s", "graph_build_s"]
HEADERS = ["variant", "seed filter", "self-scores", "alignment",
           "graph build", "total", "speedup vs seed"]


# --------------------------------------------------------------------- #
# The serial seed path, embedded as the measured baseline.
# --------------------------------------------------------------------- #

_PAD = 21  # ALPHABET_SIZE


def _legacy_pad_block(seqs):
    width = max((s.size for s in seqs), default=0)
    block = np.full((len(seqs), max(width, 1)), _PAD, dtype=np.int64)
    for r, s in enumerate(seqs):
        block[r, :s.size] = s
    return block


def _legacy_chunk_scores(seqs_a, seqs_b, mat, gap):
    """The original anti-diagonal wavefront kernel (full matrix)."""
    a = _legacy_pad_block(seqs_a)
    b = _legacy_pad_block(seqs_b)
    n_pairs, la = a.shape
    lb = b.shape[1]
    if n_pairs == 0:
        return np.zeros(0, dtype=np.int64)
    h_prev2 = np.zeros((n_pairs, la + 1), dtype=np.int64)
    h_prev1 = np.zeros((n_pairs, la + 1), dtype=np.int64)
    best = np.zeros(n_pairs, dtype=np.int64)
    for d in range(2, la + lb + 1):
        i_lo = max(1, d - lb)
        i_hi = min(la, d - 1)
        if i_lo > i_hi:
            h_prev2, h_prev1 = h_prev1, np.zeros_like(h_prev1)
            continue
        i_range = np.arange(i_lo, i_hi + 1)
        sub = mat[a[:, i_range - 1], b[:, d - i_range - 1]]
        diag = h_prev2[:, i_range - 1] + sub
        up = h_prev1[:, i_range - 1] - gap
        left = h_prev1[:, i_range] - gap
        h_cur_vals = np.maximum(np.maximum(diag, up), np.maximum(left, 0))
        h_cur = np.zeros((n_pairs, la + 1), dtype=np.int64)
        h_cur[:, i_range] = h_cur_vals
        np.maximum(best, h_cur_vals.max(axis=1), out=best)
        h_prev2, h_prev1 = h_prev1, h_cur
    return best


def _legacy_batch_sw(seqs_a, seqs_b, matrix, gap, chunk_size):
    n = len(seqs_a)
    out = np.zeros(n, dtype=np.int64)
    mat = _extended_matrix(matrix)
    order = np.argsort([len(a) + len(b) for a, b in zip(seqs_a, seqs_b)],
                       kind="stable")
    for lo in range(0, n, chunk_size):
        idx = order[lo:lo + chunk_size]
        chunk_a = [np.asarray(seqs_a[i], dtype=np.uint8) for i in idx]
        chunk_b = [np.asarray(seqs_b[i], dtype=np.uint8) for i in idx]
        out[idx] = _legacy_chunk_scores(chunk_a, chunk_b, mat, gap)
    return out


def _legacy_candidate_pairs(sequences, k, min_shared, max_kmer_occurrence):
    """The original per-sequence loop + np.split group expansion."""
    all_kmers, all_owners = [], []
    for i, seq in enumerate(sequences):
        codes = np.unique(kmer_codes(seq, k))
        all_kmers.append(codes)
        all_owners.append(np.full(codes.size, i, dtype=np.int64))
    if not all_kmers:
        return np.empty((0, 2), dtype=np.int64)
    kmers = np.concatenate(all_kmers)
    owners = np.concatenate(all_owners)
    order = np.argsort(kmers, kind="stable")
    kmers = kmers[order]
    owners = owners[order]
    boundaries = np.flatnonzero(np.diff(kmers)) + 1
    chunks = []
    for group in np.split(owners, boundaries):
        g = group.size
        if g < 2 or g > max_kmer_occurrence:
            continue
        members = np.sort(group)
        iu, ju = np.triu_indices(g, k=1)
        chunks.append(np.stack([members[iu], members[ju]], axis=1))
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    pairs = np.concatenate(chunks, axis=0)
    n = len(sequences)
    keys = pairs[:, 0] * np.int64(n) + pairs[:, 1]
    uniq, counts = np.unique(keys, return_counts=True)
    qualified = uniq[counts >= min_shared]
    return np.stack([qualified // n, qualified % n], axis=1)


def _run_seed_path(sequences, config):
    """The pre-PR build_homology_graph, stage-timed."""
    stages = {}
    n = len(sequences)
    t0 = time.perf_counter()
    pairs = _legacy_candidate_pairs(sequences, config.k,
                                    config.min_shared_kmers,
                                    config.max_kmer_occurrence)
    stages["seed_filter_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    scores = _legacy_batch_sw([sequences[i] for i in pairs[:, 0]],
                              [sequences[j] for j in pairs[:, 1]],
                              BLOSUM62, config.gap, config.chunk_size)
    stages["alignment_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    selfs = np.array([self_score(s) for s in sequences], dtype=np.int64)
    stages["self_scores_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    denom = np.minimum(selfs[pairs[:, 0]], selfs[pairs[:, 1]])
    normalized = scores / np.maximum(denom, 1)
    keep = normalized >= config.min_normalized_score
    graph = CSRGraph.from_edges(pairs[keep], n_vertices=n)
    stages["graph_build_s"] = time.perf_counter() - t0
    return stages, graph


def _best_of(fn, repeats=REPEATS):
    """Re-run ``fn`` and keep the run with the smallest stage total."""
    best = None
    for _ in range(repeats):
        stages, graph = fn()
        total = sum(stages[s] for s in STAGES)
        if best is None or total < best[0]:
            best = (total, stages, graph)
    return best[1], best[2]


def _alternating_medians(fns, repeats=ALTERNATING_REPEATS):
    """Median stage total of each of ``fns`` over ``repeats`` rounds that
    run them in alternating order, so a slow spell of the host lands on
    both alike."""
    names = list(fns)
    totals = {name: [] for name in names}
    for i in range(repeats):
        for name in (names if i % 2 == 0 else names[::-1]):
            stages, _ = fns[name]()
            totals[name].append(sum(stages[s] for s in STAGES))
    return {name: float(np.median(v)) for name, v in totals.items()}


def _row(name, stages, seed_total):
    total = sum(stages[s] for s in STAGES)
    return [name] + [f"{stages[s]:.3f}s" for s in STAGES] + [
        f"{total:.3f}s", f"{seed_total / total:.2f}x"]


def _payload(stages):
    total = sum(stages[s] for s in STAGES)
    out = {s: round(stages[s], 4) for s in STAGES}
    out["total_s"] = round(total, 4)
    return out


@contextlib.contextmanager
def _pool_forced():
    """Let ``auto`` reach the pool whatever this host's core count: no
    pairs-per-worker floor, and at least two cores."""
    cores = max(os.cpu_count() or 1, 2)
    with mock.patch.object(homology, "MIN_POOL_PAIRS_PER_WORKER", 0), \
            mock.patch.object(homology.os, "cpu_count", lambda: cores):
        yield


def test_homology_runtime(report_writer, scale):
    protein_set, base_config = make_homology_workload(scale)
    sequences = protein_set.sequences

    seed_stages, seed_graph = _best_of(
        lambda: _run_seed_path(sequences, base_config))
    seed_total = sum(seed_stages[s] for s in STAGES)

    def run_current(n_jobs, align_backend="auto"):
        config = dataclasses.replace(base_config, n_jobs=n_jobs,
                                     align_backend=align_backend)
        # Metrics-only observation (no tracer): counter increments are a
        # handful of adds, far below timing noise.
        ctx = observe(trace=False)
        with use_obs(ctx):
            result = build_homology_graph(sequences, config)
        stages = dict(result.timings.as_dict())
        stages["_snapshot"] = ctx.metrics.snapshot()
        stages["_backend"] = result.align_backend
        return stages, result.graph

    def run_pool():
        with _pool_forced():
            return run_current(PARALLEL_JOBS)

    variants = {
        "host": lambda: run_current(1, "host"),
        f"pool_j{PARALLEL_JOBS}": run_pool,
        "local": lambda: run_current(1),
        "auto": lambda: run_current(0),
    }
    stages_by, graphs, snapshots, resolved = {}, {}, {}, {}
    for name, fn in variants.items():
        stages, graph = _best_of(fn)
        snapshots[name] = stages.pop("_snapshot")
        resolved[name] = stages.pop("_backend")
        stages_by[name], graphs[name] = stages, graph

    # Each row ran the backend it names; auto follows the rule.
    n_pairs = snapshots["host"]["counters"]["homology.candidate_pairs"]
    assert resolved == {
        "host": "host", f"pool_j{PARALLEL_JOBS}": "pool", "local": "local",
        "auto": choose_align_backend("auto", n_pairs, 0)}, resolved

    # Every backend must build the identical graph.
    for name, graph in graphs.items():
        assert np.array_equal(seed_graph.indptr, graph.indptr), name
        assert np.array_equal(seed_graph.indices, graph.indices), name

    totals = {name: sum(stages[s] for s in STAGES)
              for name, stages in stages_by.items()}
    speedups = {f"{name}_vs_seed": round(seed_total / total, 3)
                for name, total in totals.items()}

    # Local extras: wasted padded-cell fraction + actual DP throughput.
    local_cells = snapshots["local"]["counters"]["device.align.cells_actual"]
    padding_waste = snapshots["local"]["gauges"][
        "device.align.padding_waste"]
    dp_cells_per_s = local_cells / max(stages_by["local"]["alignment_s"],
                                       1e-9)

    rows = [_row("seed (pre-PR)", seed_stages, seed_total)]
    for name, stages in stages_by.items():
        label = name if name != "auto" else f"auto -> {resolved['auto']}"
        rows.append(_row(label, stages, seed_total))
    title = (f"Homology-graph construction by alignment backend "
             f"({protein_set.n_sequences} sequences, scale={scale})")
    table = format_table(HEADERS, rows, title=title)

    workloads = {"homology_seed": _payload(seed_stages)}
    for name, stages in stages_by.items():
        workloads[f"homology_{name}"] = _payload(stages)
    workloads["homology_local"]["padding_waste"] = round(padding_waste, 4)
    workloads["homology_local"]["dp_cells_per_s"] = round(dp_cells_per_s)

    report_writer(
        "homology_runtime",
        table + "\n\n"
        "pGraph's observation holds: alignment dominates the stage cost, so\n"
        "it is the stage worth parallelizing — the local backend's binned\n"
        f"row-scan wastes {padding_waste:.1%} of its padded DP cells and\n"
        f"sustains {dp_cells_per_s / 1e6:.0f}M DP cells/s on one core.",
        data={
            "tables": [table_payload(title, HEADERS, rows)],
            "workloads": workloads,
            "n_sequences": protein_set.n_sequences,
            "n_edges": int(seed_graph.n_edges),
            "auto_resolved_to": resolved["auto"],
            "metrics": {f"homology_{name}": snap["counters"]
                        for name, snap in snapshots.items()},
            "speedups": speedups,
        })

    # Alignment must dominate the seed path (the premise of the PR).
    assert seed_stages["alignment_s"] > 0.5 * seed_total

    # Acceptance (PR3): host >= 1.25x from the vectorized filter + row-scan
    # aligner + lazy self-scores; pool >= 2x vs the serial seed path.
    assert speedups["host_vs_seed"] >= 1.25, (
        f"host speedup {speedups['host_vs_seed']:.2f}x < 1.25x")
    assert speedups[f"pool_j{PARALLEL_JOBS}_vs_seed"] >= 2.0, (
        f"pool speedup {speedups[f'pool_j{PARALLEL_JOBS}_vs_seed']:.2f}x "
        f"< 2.0x")

    # Acceptance (PR6), relative within this run so box noise cancels:
    # the local backend wastes < 25% of its padded DP cells, and auto
    # lands within 10% of the best fixed backend's total.
    assert padding_waste < 0.25, (
        f"padding waste {padding_waste:.3f} >= 0.25")
    # Two rows a few percent apart swap places from run to run, so this
    # compares medians of alternating repeats, not two best-of-N samples.
    best_name = min(("host", f"pool_j{PARALLEL_JOBS}", "local"),
                    key=totals.get)
    medians = _alternating_medians({"auto": variants["auto"],
                                    best_name: variants[best_name]})
    assert medians["auto"] <= 1.1 * medians[best_name], (
        f"auto median total {medians['auto']:.3f}s > 110% of the best "
        f"fixed backend's ({best_name}, {medians[best_name]:.3f}s; auto "
        f"resolved to {resolved['auto']!r})")
