#!/usr/bin/env python
"""CI perf guard: fail when a smoke bench regresses past tolerance.

Diffs a freshly-measured benchmark JSON (``workloads`` mapping under
``benchmarks/results/``) against a committed per-PR reference and exits
non-zero when any workload's warm total time regresses by more than the
tolerance (default 15%).  Warm timings on shared CI runners are noisy,
which is why the guard is tolerance-based rather than exact; improvements
never fail.  The comparison machinery is shared with the performance
ledger (:mod:`repro.obs.ledger`).

``--reference-key`` selects which mapping of the reference file holds the
guarded rows: ``table1_rows`` (clustering bench vs BENCH_PR2.json),
``homology_rows`` (homology-construction bench vs BENCH_PR6.json), or
``device_alignment_rows`` (the in-process ``local`` alignment row, also in
BENCH_PR6.json).  ``--metric`` picks which per-row value is compared
(default ``total_s``); repeat it to guard several, and every regressed
metric of every row is listed.  Metrics are lower-is-better unless the
spec carries a ``:higher`` suffix (``dp_cells_per_s:higher``).

Rows may carry tag keys (``host_cores``) describing the measuring
machine.  When the reference and measured rows disagree on
``host_cores``, wall-clock metrics get a ``SKIP`` verdict instead of a
pass/fail, and a one-line note says so: wall seconds across core counts
are noise, while modeled and counted metrics still guard the row.

``--max-overhead-pct`` switches to observability-overhead mode: the
measured file is then a ``trace_overhead.json`` written by
``scripts/run_traced_smoke.py`` (``traced_off_s`` / ``traced_on_s``), no
reference file is read, and the guard fails when enabling tracing costs
more than the given percentage.

Usage::

    python scripts/check_perf_guard.py \
        --measured benchmarks/results/table1_runtime.json \
        --reference BENCH_PR2.json [--tolerance 0.15]
    python scripts/check_perf_guard.py \
        --measured benchmarks/results/trace_overhead.json \
        --max-overhead-pct 2
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.ledger import (  # noqa: E402
    compare_rows,
    parse_metric_spec,
    render_deltas,
    rows_from,
    skipped_wall_note,
)


def check(measured: dict, reference: dict, tolerance: float,
          reference_key: str = "table1_rows",
          metrics: tuple[str, ...] = ("total_s",)) -> list[str]:
    """Return a list of failure messages (empty == pass).

    A thin wrapper over :func:`repro.obs.ledger.compare_rows`: the
    guarded rows come from ``reference[reference_key]``, the measured
    rows from ``measured["workloads"]``, and each of ``metrics`` may carry
    a ``:higher``/``:lower`` direction suffix (default lower-is-better).
    """
    ref_rows = rows_from(reference, reference_key)
    got_rows = rows_from(measured, "workloads")
    deltas, failures = compare_rows(
        ref_rows, got_rows, tolerance,
        metrics=[parse_metric_spec(m) for m in metrics])
    print(render_deltas(deltas, tolerance))
    note = skipped_wall_note(ref_rows, got_rows, deltas)
    if note:
        # Printed pass or fail: a skipped wall guard must show in the log.
        print(note)
    return failures


def check_overhead(measured: dict, max_overhead_pct: float) -> list[str]:
    """Overhead mode: traced-on wall time vs traced-off wall time."""
    off_s = float(measured["traced_off_s"])
    on_s = float(measured["traced_on_s"])
    overhead_pct = (on_s / off_s - 1.0) * 100.0
    verdict = "OK" if overhead_pct <= max_overhead_pct else "REGRESSION"
    print(f"{measured.get('workload', 'workload')}: tracing on {on_s:.4f}s "
          f"vs off {off_s:.4f}s (overhead {overhead_pct:+.2f}%, "
          f"limit {max_overhead_pct:.1f}%) -> {verdict}")
    if overhead_pct > max_overhead_pct:
        return [f"observability overhead {overhead_pct:+.2f}% exceeds "
                f"{max_overhead_pct:.1f}%"]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--measured",
                        default="benchmarks/results/table1_runtime.json",
                        help="fresh bench JSON (written by the smoke bench)")
    parser.add_argument("--reference", default="BENCH_PR2.json",
                        help="committed reference JSON")
    parser.add_argument("--reference-key", default="table1_rows",
                        help="mapping in the reference file holding the "
                             "guarded rows (table1_rows, homology_rows, "
                             "device_alignment_rows)")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional total-time regression")
    parser.add_argument("--metric", action="append", default=None,
                        metavar="NAME[:lower|higher]",
                        help="per-row value to compare (repeatable; default "
                             "total_s), e.g. alignment_s, padding_waste; "
                             "lower is better unless the spec says "
                             "NAME:higher (e.g. dp_cells_per_s:higher)")
    parser.add_argument("--max-overhead-pct", type=float, default=None,
                        metavar="PCT",
                        help="observability-overhead mode: fail when the "
                             "traced run in a trace_overhead.json is more "
                             "than PCT%% slower than the untraced run")
    args = parser.parse_args(argv)

    measured = json.loads(Path(args.measured).read_text())
    if args.max_overhead_pct is not None:
        failures = check_overhead(measured, args.max_overhead_pct)
    else:
        reference = json.loads(Path(args.reference).read_text())
        failures = check(measured, reference, args.tolerance,
                         reference_key=args.reference_key,
                         metrics=tuple(args.metric or ("total_s",)))
    if failures:
        # Every failed comparison is listed, not just the first.
        print(f"\nPERF GUARD FAILED — {len(failures)} failure(s):",
              file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("perf guard passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
