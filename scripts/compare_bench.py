#!/usr/bin/env python
"""Diff two benchmark JSON files row by row, metric by metric.

The benchmark harness writes ``benchmarks/results/<name>.json`` documents
and each PR commits a ``BENCH_PR<N>.json`` reference; this tool is the one
CLI that compares them.  It prints a per-row/per-metric delta table and
exits non-zero when any guarded metric regresses past the tolerance.

The comparison itself — metric directions, machine tags, the cross-machine
wall-metric skip — lives in :mod:`repro.obs.ledger`, shared with
``check_perf_guard.py``, the performance ledger, and ``repro obs diff``;
this module re-exports the names its callers and tests import.

Metric direction: metrics are lower-is-better by default (seconds, waste
fractions).  Append ``:higher`` to a ``--metric`` spec for higher-is-better
quantities (speedups, throughput) — a regression is then a *drop* past the
tolerance.  Improvements never fail in either direction.

Usage::

    python scripts/compare_bench.py BENCH_PR6.json \
        benchmarks/results/homology_runtime.json \
        --key homology_rows --measured-key workloads --metric total_s

    python scripts/compare_bench.py BENCH_PR6.json \
        benchmarks/results/homology_runtime.json \
        --key device_alignment_rows --measured-key workloads \
        --metric alignment_s --metric dp_cells_per_s:higher

With no ``--metric``, every numeric metric shared by a reference row and
its measured counterpart is compared (all treated as lower-is-better).

Rows may carry tag keys (currently ``host_cores``) describing the machine
that measured them.  Tags are never compared as metrics; when the reference
and measured rows were produced on machines with different ``host_cores``,
wall-clock metrics are reported with a ``SKIP`` verdict instead of a
pass/fail — comparing wall seconds across core counts is noise, and the
modeled metrics still guard the row.  Every skip is called out with a
one-line note so CI logs show *why* the guard passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.ledger import (  # noqa: E402
    DIRECTIONS,
    TAG_KEYS,
    WALL_METRICS,
    compare_rows,
    is_wall_metric,
    parse_metric_spec,
    render_deltas,
    rows_from,
    skipped_wall_note,
)

# Historical private aliases, kept for callers that predate the move of
# the comparison machinery into repro.obs.ledger.
_is_wall_metric = is_wall_metric

__all__ = [
    "DIRECTIONS",
    "TAG_KEYS",
    "WALL_METRICS",
    "compare_rows",
    "is_wall_metric",
    "main",
    "parse_metric_spec",
    "render_deltas",
    "rows_from",
    "skipped_wall_note",
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reference", help="committed reference JSON")
    parser.add_argument("measured", help="freshly-measured bench JSON")
    parser.add_argument("--key", default="workloads",
                        help="row mapping in the reference file")
    parser.add_argument("--measured-key", default=None,
                        help="row mapping in the measured file "
                             "(default: same as --key)")
    parser.add_argument("--metric", action="append", default=None,
                        metavar="NAME[:lower|higher]",
                        help="metric to compare (repeatable); default is "
                             "every numeric metric the reference row holds")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional regression")
    args = parser.parse_args(argv)

    reference = json.loads(Path(args.reference).read_text())
    measured = json.loads(Path(args.measured).read_text())
    ref_rows = rows_from(reference, args.key)
    got_rows = rows_from(measured, args.measured_key or args.key)
    metrics = ([parse_metric_spec(m) for m in args.metric]
               if args.metric else None)

    deltas, failures = compare_rows(ref_rows, got_rows, args.tolerance,
                                    metrics)
    print(render_deltas(deltas, args.tolerance))
    note = skipped_wall_note(ref_rows, got_rows, deltas)
    if note:
        # Printed pass or fail: a skipped wall guard must be visible in
        # the CI log either way.
        print(note)
    if failures:
        # Every failed comparison is listed — a run with five regressions
        # must name all five, not just the first one encountered.
        print(f"\nBENCH COMPARISON FAILED — {len(failures)} issue(s):",
              file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("bench comparison passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
