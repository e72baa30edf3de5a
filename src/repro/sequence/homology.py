"""Homology-graph construction: the end of the pGraph analogue.

Ties the sequence substrate together: seed candidate filtering, batched
Smith-Waterman on the surviving pairs, normalized-score thresholding, and
assembly of the undirected similarity graph the clustering stage consumes.

pGraph's central observation is that alignment dominates this stage, so it
distributes alignment work across processors.  ``auto`` scores pairs with
the length-binned profile kernels (:mod:`repro.sequence.binned`) on one of
two backends:

``local``
    :func:`~repro.sequence.binned.score_pairs_binned` in the calling
    process, on the flat CSR of the sequence set
    (:func:`~repro.sequence.arena.flatten_sequences`).
``pool``
    Contiguous pair shards scored by a process pool whose workers read
    sequences from a shared-memory arena (:mod:`repro.sequence.arena`) —
    no sequence pickling, shard results stream back in order.  Workers run
    the same kernels on the arena's flat CSR.

It takes the pool when more than one worker is available and each gets
at least :data:`MIN_POOL_PAIRS_PER_WORKER` pairs, and ``local`` otherwise
(:func:`choose_align_backend`).  No state carries over between runs, so
the same input always takes the same path.  ``align_backend="host"``
instead runs the host batched row-scan kernels in-process, the serial
oracle.  Scores are bit-identical across all three.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from repro.device.memory import ScratchPool
from repro.graph.csr import CSRGraph
from repro.obs import (NULL_METRICS, MetricsRegistry, ObsContext, get_obs,
                       timed, use_obs, worker_tracer)
from repro.sequence.arena import SequenceArena, flatten_sequences
from repro.sequence.binned import record_align_counts, score_pairs_binned
from repro.sequence.kmer_filter import candidate_pairs
from repro.sequence.scoring import BLOSUM62
from repro.sequence.smith_waterman import (batch_self_scores,
                                           batch_smith_waterman,
                                           batch_smith_waterman_affine)

#: Valid values of :attr:`HomologyConfig.align_backend`.
ALIGN_BACKENDS = ("auto", "host")

#: ``auto`` spawns a process pool only when every worker gets at least
#: this many pairs — below it, fork + arena setup costs more than the
#: whole serial alignment (the small-workload parallel regression).
MIN_POOL_PAIRS_PER_WORKER = 2000


@dataclass(frozen=True)
class HomologyConfig:
    """Parameters of the homology pipeline.

    Attributes
    ----------
    k / min_shared_kmers / max_kmer_occurrence:
        Settings of the k-mer seed filter that picks the candidate pairs
        (see :func:`candidate_pairs`).
    gap_model / gap / gap_open / gap_extend:
        ``"linear"`` (penalty ``gap`` per gapped residue) or ``"affine"``
        (BLAST-style ``gap_open + (L-1) * gap_extend``); both run the
        batched row-scan aligner.  Every penalty must be ``>= 0``.
    min_normalized_score:
        A pair becomes an edge when ``sw / min(self_a, self_b)`` is at least
        this value.  Normalizing by the smaller self-score makes the
        threshold length-independent, the usual convention for fragment
        data.
    chunk_size:
        Pairs per host-kernel chunk of the ``host`` backend, and the
        smallest shard the pool hands a worker.  The ``local`` backend and
        the pool workers bin pairs by length instead
        (:func:`repro.sequence.binned.plan_alignment_bins`).
    n_jobs:
        Alignment worker processes for ``auto``; ``0`` means
        ``os.cpu_count()``.  With more than one worker (capped by the
        machine's cores) and at least :data:`MIN_POOL_PAIRS_PER_WORKER`
        pairs per worker, the pairs are scored by a process pool; otherwise
        in the calling process (``local``).  The default ``1`` always
        scores locally.
    align_backend:
        ``"auto"`` (default) resolves as described under ``n_jobs`` (see
        :func:`choose_align_backend`); ``"host"`` scores every pair
        in-process on the host row-scan kernels, the serial oracle.
        Scores and edges are bit-identical across all backends.
    """

    k: int = 5
    min_shared_kmers: int = 2
    max_kmer_occurrence: int = 200
    gap_model: str = "linear"
    gap: int = 8
    gap_open: int = 11
    gap_extend: int = 1
    min_normalized_score: float = 0.40
    chunk_size: int = 256
    n_jobs: int = 1
    align_backend: str = "auto"

    def __post_init__(self) -> None:
        if self.align_backend not in ALIGN_BACKENDS:
            raise ValueError(
                f"unknown align_backend {self.align_backend!r}; "
                f"expected one of {ALIGN_BACKENDS}")
        if self.gap_model not in ("linear", "affine"):
            raise ValueError(f"unknown gap_model {self.gap_model!r}")
        if min(self.gap, self.gap_open, self.gap_extend) < 0:
            raise ValueError("gap penalties must be >= 0")
        if not 0.0 < self.min_normalized_score <= 1.0:
            raise ValueError("min_normalized_score must be in (0, 1]")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.n_jobs < 0:
            raise ValueError("n_jobs must be >= 0 (0 = cpu_count)")


@dataclass
class HomologyTimings:
    """Wall-clock seconds per homology stage (pGraph's cost breakdown)."""

    seed_filter_s: float = 0.0
    self_scores_s: float = 0.0
    alignment_s: float = 0.0
    graph_build_s: float = 0.0

    @property
    def total_s(self) -> float:
        return (self.seed_filter_s + self.self_scores_s
                + self.alignment_s + self.graph_build_s)

    def as_dict(self) -> dict[str, float]:
        return {
            "seed_filter_s": self.seed_filter_s,
            "self_scores_s": self.self_scores_s,
            "alignment_s": self.alignment_s,
            "graph_build_s": self.graph_build_s,
            "total_s": self.total_s,
        }


@dataclass
class HomologyResult:
    """The similarity graph plus pipeline statistics.

    ``normalized_scores`` aligns with ``pairs`` row for row.  When the graph
    was built with ``keep_scores=False`` both arrays are empty — edges
    streamed into the CSR without retaining the per-candidate score vector —
    and only the counts remain.
    """

    graph: CSRGraph
    n_candidate_pairs: int
    n_edges: int
    normalized_scores: np.ndarray = field(repr=False)
    pairs: np.ndarray = field(repr=False)
    timings: HomologyTimings | None = field(default=None, repr=False)
    #: Backend that actually scored the pairs (None when nothing aligned).
    align_backend: str | None = None


# ---------------------------------------------------------------------- #
# Shard scoring (shared by the serial path and pool workers)
# ---------------------------------------------------------------------- #

def _score_shard(sequences, pairs, denom, matrix, config, keep_scores):
    """Align one contiguous shard of candidate pairs on the host kernels.

    Returns ``(normalized_or_none, kept_pairs, kept_scores)`` where the
    first element is the shard's full normalized-score vector only when
    ``keep_scores`` is set.
    """
    seqs_a = [sequences[i] for i in pairs[:, 0]]
    seqs_b = [sequences[j] for j in pairs[:, 1]]
    if config.gap_model == "affine":
        scores = batch_smith_waterman_affine(
            seqs_a, seqs_b, matrix=matrix, gap_open=config.gap_open,
            gap_extend=config.gap_extend, chunk_size=config.chunk_size)
    else:
        scores = batch_smith_waterman(seqs_a, seqs_b, matrix=matrix,
                                      gap=config.gap,
                                      chunk_size=config.chunk_size)
    return _threshold(scores, pairs, denom, config, keep_scores)


def _threshold(scores, pairs, denom, config, keep_scores):
    """Normalize a shard's raw scores and keep the pairs that pass."""
    normalized = scores / np.maximum(denom, 1)
    keep = normalized >= config.min_normalized_score
    return (normalized if keep_scores else None,
            pairs[keep], normalized[keep])


_WORKER: dict = {}


def _init_worker(arena_name, n_sequences, matrix, config, keep_scores,
                 trace=False, metrics=False):
    _WORKER["arena"] = SequenceArena.attach(arena_name, n_sequences)
    _WORKER["scratch"] = ScratchPool()
    _WORKER["matrix"] = matrix
    _WORKER["config"] = config
    _WORKER["keep_scores"] = keep_scores
    # Each worker gets its own tracer (proc label "sw-worker-<pid>"); the
    # records ride back to the parent with the shard result and are merged
    # onto the parent timeline (perf_counter is system-wide monotonic).
    _WORKER["tracer"] = worker_tracer(trace, "sw-worker")
    _WORKER["metrics"] = metrics


def _score_shard_remote(task):
    """Score one shard in a pool worker with the binned profile kernels,
    straight from the arena's flat CSR (bit-identical to the host path).

    The shard's ``device.align.*`` counters are recorded on a private
    registry and returned with its spans; a forked worker's copy of the
    parent's registry would swallow them.
    """
    shard, pairs, denom = task
    tracer = _WORKER["tracer"]
    arena = _WORKER["arena"]
    config = _WORKER["config"]
    metrics = MetricsRegistry() if _WORKER["metrics"] else NULL_METRICS
    with tracer.span("homology.align.shard", shard=shard,
                     n_pairs=int(pairs.shape[0])), \
            use_obs(ObsContext(metrics=metrics)):
        scores = score_pairs_binned(
            arena.residues, arena.offsets, pairs, _WORKER["matrix"],
            gap_model=config.gap_model, gap=config.gap,
            gap_open=config.gap_open, gap_extend=config.gap_extend,
            pool=_WORKER["scratch"])
        result = _threshold(scores, pairs, denom, config,
                            _WORKER["keep_scores"])
    return result + (tracer.drain(), metrics.snapshot()["counters"])


def _shard_bounds(n_pairs: int, chunk_size: int, n_jobs: int):
    """Contiguous ``(lo, hi)`` shard bounds: ~4 shards per worker for load
    balance, but never smaller than one alignment chunk.

    A single worker gets a single shard — sharding exists only to feed a
    pool, and splitting serial work adds per-shard span/merge overhead for
    nothing (the ``--jobs 1`` short-circuit).
    """
    if n_pairs <= 0:
        return []
    if n_jobs <= 1:
        return [(0, n_pairs)]
    shard = max(chunk_size, -(-n_pairs // max(n_jobs * 4, 1)))
    return [(lo, min(lo + shard, n_pairs))
            for lo in range(0, n_pairs, shard)]


def _effective_workers(n_jobs: int) -> int:
    """Workers ``n_jobs`` can get (0 = all): capped by the machine's cores."""
    cores = os.cpu_count() or 1
    return min(n_jobs, cores) if n_jobs > 0 else cores


def choose_align_backend(backend: str, n_pairs: int, n_jobs: int) -> str:
    """Resolve an ``align_backend`` setting to a concrete backend.

    ``host`` is honored verbatim.  ``auto`` takes the process pool when the
    *effective* worker count (``n_jobs`` capped by the machine's cores)
    exceeds one and every worker gets at least
    :data:`MIN_POOL_PAIRS_PER_WORKER` pairs, and ``local`` otherwise.  The
    choice depends on nothing but the arguments and the core count, so
    ``auto`` never forks for a workload small enough to lose to serial
    outright, and no earlier run can change it.
    """
    if backend not in ALIGN_BACKENDS:
        raise ValueError(f"unknown align_backend {backend!r}")
    if backend == "host":
        return "host"
    workers = _effective_workers(n_jobs)
    if workers > 1 and n_pairs >= MIN_POOL_PAIRS_PER_WORKER * workers:
        return "pool"
    return "local"


# ---------------------------------------------------------------------- #
# Graph construction
# ---------------------------------------------------------------------- #

def build_homology_graph(sequences: list[np.ndarray],
                         config: HomologyConfig | None = None,
                         matrix: np.ndarray = BLOSUM62,
                         keep_scores: bool = True) -> HomologyResult:
    """Construct the similarity graph of a sequence set.

    Every candidate pair from the seed filter is aligned; pairs whose
    normalized Smith-Waterman score reaches the threshold become undirected
    edges.  ``config.align_backend`` selects the scoring backend (``host``,
    or ``auto`` for pool / local by :func:`choose_align_backend`); output
    is bit-identical across all of them.  With ``keep_scores=False`` only
    above-threshold edges are retained as shards complete, never the full
    score vector.
    """
    config = config or HomologyConfig()
    timings = HomologyTimings()
    n = len(sequences)
    obs = get_obs()
    tracer = obs.tracer
    metrics = obs.metrics
    t_start = tracer.clock() if tracer.enabled else 0.0

    with timed(tracer, "homology.seed_filter") as stage:
        pairs = candidate_pairs(
            sequences, k=config.k, min_shared=config.min_shared_kmers,
            max_kmer_occurrence=config.max_kmer_occurrence)
        stage.set(n_pairs=int(pairs.shape[0]))
    timings.seed_filter_s = stage.elapsed

    n_pairs = int(pairs.shape[0])
    metrics.counter("homology.candidate_pairs").add(n_pairs)
    if n_pairs == 0:
        return HomologyResult(
            graph=CSRGraph.from_edges(np.empty((0, 2), dtype=np.int64),
                                      n_vertices=n),
            n_candidate_pairs=0, n_edges=0,
            normalized_scores=np.zeros(0), pairs=pairs, timings=timings)

    # Self-scores, lazily: only sequences referenced by a candidate pair
    # are ever used as a denominator, so score just those in one batch.
    with timed(tracer, "homology.self_scores") as stage:
        refs = np.unique(pairs)
        selfs = np.zeros(n, dtype=np.int64)
        selfs[refs] = batch_self_scores([sequences[i] for i in refs], matrix)
        denom = np.minimum(selfs[pairs[:, 0]], selfs[pairs[:, 1]])
        stage.set(n_refs=int(refs.size))
    timings.self_scores_s = stage.elapsed

    n_jobs = _effective_workers(config.n_jobs)
    backend = choose_align_backend(config.align_backend, n_pairs,
                                   config.n_jobs)
    shards = _shard_bounds(n_pairs, config.chunk_size,
                           1 if backend == "local" else n_jobs)

    score_blocks: list[np.ndarray] = []
    edge_blocks: list[np.ndarray] = []
    with timed(tracer, "homology.alignment", n_pairs=n_pairs,
               n_jobs=n_jobs, n_shards=len(shards),
               backend=backend) as stage:
        if backend == "local":
            with tracer.span("homology.align.shard", shard=0,
                             n_pairs=n_pairs):
                residues, offsets = flatten_sequences(sequences)
                scores = score_pairs_binned(
                    residues, offsets, pairs, matrix,
                    gap_model=config.gap_model, gap=config.gap,
                    gap_open=config.gap_open, gap_extend=config.gap_extend)
                block, kept_pairs, _ = _threshold(scores, pairs, denom,
                                                  config, keep_scores)
            if keep_scores:
                score_blocks.append(block)
            edge_blocks.append(kept_pairs)
        elif backend == "pool":
            tasks = [(i, pairs[lo:hi], denom[lo:hi])
                     for i, (lo, hi) in enumerate(shards)]
            ctx = (multiprocessing.get_context("fork")
                   if "fork" in multiprocessing.get_all_start_methods()
                   else multiprocessing.get_context())
            align_counts: Counter[str] = Counter()
            with SequenceArena.pack(sequences) as arena, \
                    ProcessPoolExecutor(
                        max_workers=min(n_jobs, len(shards)),
                        mp_context=ctx, initializer=_init_worker,
                        initargs=(arena.name, n, matrix, config,
                                  keep_scores, tracer.enabled,
                                  metrics.enabled)) as pool:
                try:
                    # map yields in shard order: deterministic merge.  A
                    # worker that dies breaks the pool instead of leaving
                    # its shard's result pending forever.
                    for block, kept_pairs, _, spans, counts in pool.map(
                            _score_shard_remote, tasks):
                        if spans:
                            tracer.absorb(spans)
                        align_counts.update(counts)
                        if keep_scores:
                            score_blocks.append(block)
                        edge_blocks.append(kept_pairs)
                except BrokenProcessPool as exc:
                    raise RuntimeError(
                        "homology alignment failed: a pool worker died "
                        "before returning its shard") from exc
            record_align_counts(align_counts)
        else:
            for i, (lo, hi) in enumerate(shards):
                with tracer.span("homology.align.shard", shard=i,
                                 n_pairs=hi - lo):
                    block, kept_pairs, _ = _score_shard(
                        sequences, pairs[lo:hi], denom[lo:hi], matrix,
                        config, keep_scores)
                if keep_scores:
                    score_blocks.append(block)
                edge_blocks.append(kept_pairs)
    timings.alignment_s = stage.elapsed

    with timed(tracer, "homology.graph_build") as stage:
        edges = (np.concatenate(edge_blocks, axis=0) if edge_blocks
                 else np.empty((0, 2), dtype=np.int64))
        graph = CSRGraph.from_edges(edges, n_vertices=n)
        stage.set(n_edges=graph.n_edges)
    timings.graph_build_s = stage.elapsed

    metrics.counter("homology.edges_kept").add(graph.n_edges)
    metrics.counter("homology.pairs_dropped").add(n_pairs - graph.n_edges)
    if tracer.enabled:
        tracer.record("homology.build", t_start, tracer.clock(),
                      attrs={"n_sequences": n, "n_candidate_pairs": n_pairs,
                             "n_edges": graph.n_edges})

    if keep_scores:
        normalized = np.concatenate(score_blocks)
        pairs_out = pairs
    else:
        normalized = np.zeros(0)
        pairs_out = np.empty((0, 2), dtype=np.int64)
    return HomologyResult(
        graph=graph,
        n_candidate_pairs=n_pairs,
        n_edges=graph.n_edges,
        normalized_scores=normalized,
        pairs=pairs_out,
        timings=timings,
        align_backend=backend,
    )
