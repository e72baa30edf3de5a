#!/usr/bin/env python
"""CI traced smoke run: trace the Table-I "2m" config and bound the cost.

Times the 2M-analogue clustering workload with observation off and on in
``--repeats`` back-to-back pairs (the order within a pair alternates), so
a slow host episode lands on both runs of a pair, and takes the median of
the per-pair traced/untraced ratios as the tracing overhead — then runs a
traced default-config homology build, and writes these artifacts under
``benchmarks/results/``:

``trace_2m.json``
    The Chrome Trace Event export of the traced run (Perfetto-loadable),
    with the metrics snapshot and span summary embedded in ``otherData``.
``trace_overhead.json``
    ``{"traced_off_s", "traced_on_s", "overhead_pct", "pair_ratios",
    ...}`` — consumed by ``check_perf_guard.py --max-overhead-pct`` to
    fail CI when tracing stops being near-free.  ``traced_off_s`` is the
    median untraced wall and ``traced_on_s`` that wall times the median
    pair ratio, so their quotient is the paired statistic.
``trace_2m_summary.txt``
    The ``repro obs summary`` rendering of the trace, for humans.
``attribution_2m.json`` / ``attribution_2m.txt`` / ``critical_path_2m.txt``
    Self-time attribution (machine-readable + rendered) and the
    critical-path rendering of the traced run.
``ledger/traced_smoke.jsonl``
    One performance-ledger entry per invocation (overhead, wall,
    critical-path seconds, the traced run's pass I shingles kept for
    pass II, and its pass II rounds run and skipped and lists shingled),
    keyed by the run configuration — the
    cross-run trajectory behind ``repro obs ledger``.
``trace_homology.json`` / ``trace_homology_summary.txt``
    The Chrome Trace export (and rendering) of a homology-graph build
    (``n_jobs=1``, so ``auto`` scores in-process): the run must resolve to
    ``local`` and its alignment must appear as a ``homology.alignment``
    span holding a ``homology.align.shard`` span, which this script
    asserts.

The script also asserts the tracer's own accounting: the root
``gpclust.run`` span must reconcile with the pipeline's reported wall time
within 5%, and both trace documents must pass schema validation.  The
attribution's top-ranked self-time row must be a shingle kernel round
(``device.shingle_chunk*``): at this scale the device kernels are where
the 2m run spends most of its wall.  It
asserts that the partition run fed pass II straight into Phase III: the
trace has a ``phase3.union`` span, and no ``exec.chunk_aggregate`` or
``exec.merge_partials`` span lies inside ``gpclust.pass2``.  Exits
non-zero on any violation.

Usage::

    PYTHONPATH=src python scripts/run_traced_smoke.py [--repeats 21]

The ledger row keeps its historical name ``2m_dev1`` so its series
continues.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

from repro.core.pipeline import GpClust
from repro.obs import (
    SUMMARY_SCHEMA_VERSION,
    attribute,
    critical_path,
    observe,
    render_attribution,
    render_critical_path,
    render_summary,
    use_obs,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.ledger import append_ledger
from repro.pipeline.workloads import get_scale, make_runtime_workload, workload_params

RESULTS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
WORKLOAD = "2m"
RECONCILE_TOLERANCE = 0.05


def _wall_s(fn) -> float:
    """Wall seconds of one run of ``fn``, GC paused while timed."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=21,
                        help="untraced/traced pairs timed (the median "
                             "per-pair ratio is kept)")
    parser.add_argument("--out-dir", default=str(RESULTS_DIR),
                        help="artifact directory")
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    scale = get_scale()
    graph = make_runtime_workload(WORKLOAD, scale).graph
    params = workload_params(scale)
    print(f"workload {WORKLOAD} (scale={scale}): "
          f"{graph.n_vertices} vertices, {graph.n_edges} edges")

    GpClust(params).run(graph)  # warm-up: page in buffers, prime pools

    ctx = observe()
    result = None

    def traced_run():
        nonlocal ctx, result
        ctx = observe()
        with use_obs(ctx):
            result = GpClust(params).run(graph)

    # Each pair times one untraced and one traced run back to back, in
    # alternating order, so a slow host episode lands on both; the median
    # of the per-pair ratios resolves a few percent where the minimum of
    # each mode over a few runs did not.
    off_walls, ratios = [], []
    for i in range(max(args.repeats, 1)):
        if i % 2:
            on = _wall_s(traced_run)
            off = _wall_s(lambda: GpClust(params).run(graph))
        else:
            off = _wall_s(lambda: GpClust(params).run(graph))
            on = _wall_s(traced_run)
        off_walls.append(off)
        ratios.append(on / off)
    ratio = statistics.median(ratios)
    off_s = statistics.median(off_walls)
    on_s = off_s * ratio
    overhead_pct = (ratio - 1.0) * 100.0
    print(f"observation off: {off_s:.4f}s (median) | overhead "
          f"{overhead_pct:+.2f}% (median of {len(ratios)} pair ratios, "
          f"{(min(ratios) - 1) * 100:+.2f}% .. {(max(ratios) - 1) * 100:+.2f}%)")

    # --- trace artifact -------------------------------------------------
    records = ctx.tracer.records
    doc = write_chrome_trace(
        out_dir / "trace_2m.json", records, ctx.tracer.t0,
        metadata={"workload": WORKLOAD, "scale": scale,
                  "metrics": ctx.metrics.snapshot(),
                  "spans": ctx.tracer.summary()})
    validate_chrome_trace(doc)
    print(f"trace written to {out_dir / 'trace_2m.json'} "
          f"({len(records)} spans)")
    summary_text = render_summary(doc)
    (out_dir / "trace_2m_summary.txt").write_text(summary_text + "\n")
    print(summary_text)

    # --- trace analytics: critical path + self-time attribution ---------
    failures: list[str] = []
    cp = critical_path(doc)
    (out_dir / "critical_path_2m.txt").write_text(
        render_critical_path(cp) + "\n")
    report = attribute(doc)
    (out_dir / "attribution_2m.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    (out_dir / "attribution_2m.txt").write_text(
        render_attribution(report) + "\n")
    top = report["rows"][0]["name"] if report["rows"] else None
    print(f"critical path: {cp['path_s']:.4f}s of {cp['wall_s']:.4f}s "
          f"bounded by {cp['bounding_proc']}/{cp['bounding_track']}; "
          f"top self-time row: {top}")
    if cp["bounding_proc"] is None:
        failures.append("critical path found no bounding proc")
    if top is None or not top.startswith("device.shingle_chunk"):
        failures.append(f"top-ranked self-time row is {top!r}, not a "
                        "shingle kernel round (device.shingle_chunk*)")
    # The analysis must describe the run it claims to: its wall and
    # path/idle split reconcile with the tracer's own summary within 5%.
    summary_wall = ctx.tracer.summary()["wall_s"]
    if summary_wall > 0:
        attr_drift = abs(report["wall_s"] - summary_wall) / summary_wall
        split_drift = abs(cp["path_s"] + cp["idle_s"] - cp["wall_s"]) / (
            cp["wall_s"] or 1.0)
        print(f"attribution wall {report['wall_s']:.4f}s vs summary "
              f"{summary_wall:.4f}s (drift {attr_drift:.2%}); "
              f"path+idle split drift {split_drift:.2%}")
        if attr_drift > RECONCILE_TOLERANCE:
            failures.append(
                f"attribution wall {report['wall_s']:.4f}s does not "
                f"reconcile with summary wall {summary_wall:.4f}s "
                f"(drift {attr_drift:.2%})")
        if split_drift > RECONCILE_TOLERANCE:
            failures.append(
                f"critical-path split path {cp['path_s']:.4f}s + idle "
                f"{cp['idle_s']:.4f}s does not reconcile with wall "
                f"{cp['wall_s']:.4f}s")

    # --- reconciliation: root span vs reported wall time ----------------
    roots = [r for r in records if r.name == "gpclust.run"]
    if not roots:
        failures.append("trace has no gpclust.run root span")
    else:
        root_s = roots[-1].duration
        reported_s = result.timings.total
        drift = abs(root_s - reported_s) / reported_s
        print(f"root span {root_s:.4f}s vs reported total {reported_s:.4f}s "
              f"(drift {drift:.2%}, tolerance {RECONCILE_TOLERANCE:.0%})")
        if drift > RECONCILE_TOLERANCE:
            failures.append(
                f"root span {root_s:.4f}s does not reconcile with reported "
                f"wall time {reported_s:.4f}s (drift {drift:.2%})")

    # --- pass II fed straight into Phase III ----------------------------
    # Partition mode never builds G_II: pass II folds its chunks into the
    # Phase III union and runs no inter-pass aggregation.
    if not any(r.name == "phase3.union" for r in records):
        failures.append("trace has no phase3.union span")
    for p2 in (r for r in records if r.name == "gpclust.pass2"):
        inside = {r.name for r in records
                  if p2.start <= r.start and r.end <= p2.end}
        built = inside & {"exec.chunk_aggregate", "exec.merge_partials"}
        if built:
            failures.append(
                f"gpclust.pass2 holds {sorted(built)} spans (pass II built "
                f"G_II instead of feeding Phase III directly)")

    # --- homology build, scored in-process ------------------------------
    from repro.pipeline.workloads import make_homology_workload
    from repro.sequence.homology import build_homology_graph

    protein_set, h_config = make_homology_workload(scale)
    h_ctx = observe()
    with use_obs(h_ctx):
        h_result = build_homology_graph(protein_set.sequences, h_config)
    h_records = h_ctx.tracer.records
    h_doc = write_chrome_trace(
        out_dir / "trace_homology.json", h_records, h_ctx.tracer.t0,
        metadata={"workload": "homology", "scale": scale,
                  "align_backend": h_result.align_backend,
                  "metrics": h_ctx.metrics.snapshot(),
                  "spans": h_ctx.tracer.summary()})
    validate_chrome_trace(h_doc)
    (out_dir / "trace_homology_summary.txt").write_text(
        render_summary(h_doc) + "\n")
    stages = [r for r in h_records if r.name == "homology.alignment"]
    shards = [r for r in h_records if r.name == "homology.align.shard"]
    print(f"homology trace ({h_result.align_backend} backend): "
          f"{len(h_records)} spans, {len(shards)} homology.align.shard, "
          f"{h_result.n_edges} edges -> {out_dir / 'trace_homology.json'}")
    if h_result.align_backend != "local":
        failures.append(
            f"homology run resolved to {h_result.align_backend!r}, "
            f"not 'local'")
    if len(stages) != 1 or stages[0].attrs.get("backend") != "local":
        failures.append("homology trace has no homology.alignment span "
                        "with backend 'local'")
    elif not any(stages[0].start <= r.start and r.end <= stages[0].end
                 for r in shards):
        failures.append("homology trace has no homology.align.shard span "
                        "inside homology.alignment")

    overhead_doc = {
        "name": "trace_overhead",
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "workload": WORKLOAD,
        "scale": scale,
        "repeats": len(ratios),
        "statistic": "median of per-pair traced/untraced wall ratios",
        "pair_ratios": [round(r, 6) for r in ratios],
        "traced_off_s": round(off_s, 6),
        "traced_on_s": round(on_s, 6),
        "overhead_pct": round(overhead_pct, 4),
        "n_spans": len(records),
    }
    (out_dir / "trace_overhead.json").write_text(
        json.dumps(overhead_doc, indent=2) + "\n")
    print(f"overhead report written to {out_dir / 'trace_overhead.json'}")

    # --- performance ledger ---------------------------------------------
    row_name = "2m_dev1"
    counters = ctx.metrics.snapshot()["counters"]
    ledger_row = {
        "traced_off_s": round(off_s, 6),
        "traced_on_s": round(on_s, 6),
        "overhead_pct": round(overhead_pct, 4),
        "wall_s": round(report["wall_s"], 6),
        "critical_path_s": round(cp["path_s"], 6),
        "critical_path_idle_s": round(cp["idle_s"], 6),
        "n_spans": len(records),
        "pass1_kept": counters.get("shingle.pass1_kept", 0),
        "pass2_rounds": counters.get("shingle.pass2_rounds", 0),
        "pass2_rounds_skipped": counters.get(
            "shingle.pass2_rounds_skipped", 0),
        "pass2_active_lists": counters.get("shingle.pass2_active_lists", 0),
    }
    append_ledger(
        out_dir / "ledger", "traced_smoke", {row_name: ledger_row},
        config={"workload": WORKLOAD, "scale": scale,
                "align_backend": h_result.align_backend},
        host_cores=os.cpu_count())
    print(f"ledger row {row_name} appended under {out_dir / 'ledger'}")

    if failures:
        print("\nTRACED SMOKE FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("traced smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
