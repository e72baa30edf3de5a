"""Per-layer metrics of one traced call, read from the program's own spans.

The benchmark adds no instrumentation to the program.  It wraps each public
call in a ``bench.*`` span and reads what the program already records: span
seconds per layer, and the counters and gauges of the call's metrics
registry.  A span or counter that a later version no longer records reads
as 0.

A layer's seconds are the summed durations of its spans, counting only the
outermost where its spans nest.  Layers nest too: ``shingle.pass1_s``
contains that pass's ``shingle.kernel_s`` and ``aggregate.merge_s``.  The
top-level program spans of a call (``homology.build``, ``gpclust.run``)
partition what the program accounts for; ``layers.unattributed_s`` is the
rest of the call's wall, time in the benchmark's own spans or in no span.
"""

from __future__ import annotations

#: A traced call reconciles when the program's spans leave at most this
#: share of its measured wall uncovered.
RECONCILE_SHARE = 0.05

SPAN_SECONDS: dict[str, tuple[str, ...]] = {
    "homology.s": ("homology.build",),
    "homology.seed_filter_s": ("homology.seed_filter",),
    "homology.self_scores_s": ("homology.self_scores",),
    "homology.alignment_s": ("homology.alignment",),
    "homology.graph_build_s": ("homology.graph_build",),
    "clustering.s": ("gpclust.run",),
    "shingle.pass1_s": ("gpclust.pass1",),
    "shingle.pass2_s": ("gpclust.pass2",),
    "shingle.kernel_s": ("device.shingle_chunk", "device.shingle_chunk_reduce",
                         "device.graph_replay"),
    "shingle.capture_s": ("device.graph_capture",),
    "aggregate.merge_s": ("exec.chunk_aggregate", "exec.merge_partials",
                          "exec.aggregate"),
    "phase3.s": ("phase3.report",),
}

#: Every metric :func:`layer_metrics` returns, in report order.
CALL_METRICS = (
    "homology.s", "homology.seed_filter_s", "homology.self_scores_s",
    "homology.alignment_s", "homology.graph_build_s",
    "homology.candidate_pairs", "homology.edges",
    "homology.candidate_precision",
    "align.cells_actual", "align.cells_padded", "align.padding_waste",
    "align.cells_per_s",
    "clustering.s", "shingle.pass1_s", "shingle.pass2_s", "shingle.kernel_s",
    "shingle.capture_s", "shingle.dedup_ratio", "device.kernel_launches",
    "device.h2d_bytes", "device.d2h_bytes", "launchgraph.hit_rate",
    "scratch.hit_rate", "aggregate.merge_s", "phase3.s", "phase3.cc_rounds",
    "device.modeled_s", "layers.unattributed_s",
)


def outermost(records: list, names) -> list:
    """Records named in ``names`` that no other such record on the same
    track contains; of two with the same interval, the first recorded."""
    # Sorted by start, then longest first, every container precedes what it
    # contains (the sort is stable, so equal intervals keep record order).
    chosen = sorted((r for r in records if r.name in names),
                    key=lambda r: (r.start, -r.end))
    kept = []
    for r in chosen:
        if not any((k.proc, k.track) == (r.proc, r.track) and r.end <= k.end
                   for k in kept):
            kept.append(r)
    return kept


def span_seconds(records: list, names) -> float:
    return sum(r.duration for r in outermost(records, names))


def attributed_seconds(records: list) -> float:
    """Seconds of the call covered by the program's outermost spans.

    Only spans on the track of the ``bench.*`` spans count: the call's wall
    is spent there, and other tracks (a copy thread) run concurrently.
    """
    bench = [r for r in records if r.name.startswith("bench.")]
    if not bench:
        return 0.0
    coord = (bench[0].proc, bench[0].track)
    on_track = [r for r in records if (r.proc, r.track) == coord]
    return span_seconds(on_track, {r.name for r in on_track
                                   if not r.name.startswith("bench.")})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(records: list, snapshot: dict, wall_s: float) -> dict:
    """All :data:`CALL_METRICS` of one call.

    ``records`` are the call's span records, ``snapshot`` its
    ``MetricsRegistry.snapshot()`` and ``wall_s`` its wall measured around
    the call.
    """
    out = {name: span_seconds(records, spans)
           for name, spans in SPAN_SECONDS.items()}
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    pairs = counters.get("homology.candidate_pairs", 0)
    edges = counters.get("homology.edges_kept", 0)
    actual = counters.get("device.align.cells_actual", 0)
    padded = counters.get("device.align.cells_padded", 0)
    hits = gauges.get("device.scratch.hits", 0)
    misses = gauges.get("device.scratch.misses", 0)
    out.update({
        "homology.candidate_pairs": pairs,
        "homology.edges": edges,
        "homology.candidate_precision": _ratio(edges, pairs),
        "align.cells_actual": actual,
        "align.cells_padded": padded,
        "align.padding_waste": 1.0 - actual / padded if padded else 0.0,
        "align.cells_per_s": _ratio(actual, out["homology.alignment_s"]),
        "shingle.dedup_ratio": _ratio(
            counters.get("shingle.distinct_fps", 0),
            counters.get("shingle.occurrence_slots", 0)),
        "device.kernel_launches": sum(
            v for k, v in counters.items()
            if k.startswith("device.kernel.") and k.endswith(".launches")),
        "device.h2d_bytes": gauges.get("device.h2d_bytes", 0),
        "device.d2h_bytes": gauges.get("device.d2h_bytes", 0),
        "launchgraph.hit_rate": gauges.get("device.graph_hit_rate", 0.0),
        "scratch.hit_rate": _ratio(hits, hits + misses),
        "phase3.cc_rounds": counters.get("device.cc.rounds", 0),
        "device.modeled_s": sum(
            v for k, v in counters.items()
            if k.startswith("device.kernel.") and k.endswith(".modeled_s")),
        "layers.unattributed_s": wall_s - attributed_seconds(records),
    })
    return {name: out[name] for name in CALL_METRICS}


def reconciles(layers: dict, wall_s: float) -> bool:
    """Whether the program's spans account for the call's wall within
    :data:`RECONCILE_SHARE`."""
    return abs(layers["layers.unattributed_s"]) <= RECONCILE_SHARE * wall_s
