"""The cross-run performance ledger and the shared bench-diff machinery.

Two halves, both consumed by the CI scripts and the ``repro obs`` CLI:

**Row comparison** (:func:`compare_rows`, :func:`render_deltas`, the
metric-direction/tag/wall-metric rules) — the one implementation of
"did this bench row regress against that reference row";
``scripts/check_perf_guard.py`` is a thin CLI over these functions.

**The ledger** — an append-only JSONL store under
``benchmarks/results/ledger/`` that every bench writer and
``run_traced_smoke.py`` appends to.  One line per (benchmark row,
config fingerprint) observation::

    {"schema_version": 1, "ts": ..., "bench": "table1_runtime",
     "row": "2m", "fingerprint": "9f2c04d1e7ab", "host_cores": 4,
     "config": {...}, "metrics": {"total_s": 1.13, ...}}

The fingerprint hashes the *configuration* (scale, workload, backends —
whatever the writer says identifies the setup), so trajectories only
chain together measurements of the same thing; ``host_cores`` further
partitions wall-clock metrics, which are noise across machines.  Drift
detection is an EWMA with a relative tolerance band: the latest value is
flagged when it leaves ``ewma(prior) * (1 +/- tolerance)``, which
catches slow creep that any single pairwise guard under the same
tolerance would wave through.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from repro.util.tables import format_table

#: Ledger entry schema.
LEDGER_SCHEMA_VERSION = 1

#: Default ledger location, relative to the repository root.
LEDGER_DIRNAME = Path("benchmarks") / "results" / "ledger"

#: Valid direction suffixes of a ``"name[:direction]"`` metric spec.
DIRECTIONS = ("lower", "higher")

#: Row keys that describe the measuring machine, not the measurement —
#: never compared as metrics.
TAG_KEYS = frozenset({"host_cores"})

#: Metrics that measure wall-clock time (or wall-clock-derived speedups),
#: meaningless to compare across machines with different core counts.
WALL_METRICS = frozenset({"total_s", "cpu_s", "gpu_s", "alignment_s",
                          "overhead_frac", "traced_off_s", "traced_on_s",
                          "overhead_pct"})

#: EWMA smoothing factor for drift detection (weight of the newest prior).
EWMA_ALPHA = 0.3


def is_wall_metric(name: str) -> bool:
    """Whether ``name`` is wall-clock-derived (vs modeled/counted)."""
    return (name in WALL_METRICS or name.startswith("wall_")
            or name.endswith("_wall"))


def parse_metric_spec(spec: str) -> tuple[str, str]:
    """Split ``"name"`` / ``"name:higher"`` into ``(name, direction)``."""
    name, sep, direction = spec.partition(":")
    if not sep:
        return name, "lower"
    if direction not in DIRECTIONS:
        raise ValueError(
            f"bad metric spec {spec!r}: direction must be one of "
            f"{DIRECTIONS}")
    return name, direction


def numeric_metrics(row: dict) -> list[str]:
    """Comparable metric keys of a bench row (numbers minus tags)."""
    return [k for k, v in row.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
            and k not in TAG_KEYS]


def host_cores_differ(ref: dict, got: dict) -> bool:
    """True when both rows carry ``host_cores`` and they disagree."""
    return ("host_cores" in ref and "host_cores" in got
            and ref["host_cores"] != got["host_cores"])


def compare_rows(ref_rows: dict, got_rows: dict, tolerance: float,
                 metrics: list[tuple[str, str]] | None = None
                 ) -> tuple[list[dict], list[str]]:
    """Compare measured rows against reference rows.

    Returns ``(deltas, failures)``: one delta dict per (row, metric)
    comparison — ``{"row", "metric", "direction", "ref", "got",
    "delta_frac", "verdict"}`` — and a list of human-readable failure
    messages (empty == pass).  A reference row or metric missing from the
    measured side is itself a failure: silently-dropped coverage must not
    read as a pass.

    When a reference row and its measured counterpart both carry a
    ``host_cores`` tag and the values differ, wall-clock metrics (see
    :data:`WALL_METRICS`) get a ``SKIP`` verdict instead of pass/fail —
    they were measured on different machines.  Modeled and counted metrics
    still compare normally.
    """
    deltas: list[dict] = []
    failures: list[str] = []
    for name, ref in sorted(ref_rows.items()):
        if name not in got_rows:
            failures.append(f"{name}: missing from measured results")
            continue
        got = got_rows[name]
        skip_wall = host_cores_differ(ref, got)
        row_metrics = metrics or [(m, "lower") for m in numeric_metrics(ref)]
        for metric, direction in row_metrics:
            if metric not in ref:
                continue        # reference does not guard this metric here
            if metric not in got:
                failures.append(f"{name}: metric {metric!r} missing from "
                                f"measured results")
                continue
            ref_val = float(ref[metric])
            got_val = float(got[metric])
            delta_frac = (got_val / ref_val - 1.0) if ref_val else 0.0
            if skip_wall and is_wall_metric(metric):
                deltas.append({"row": name, "metric": metric,
                               "direction": direction, "ref": ref_val,
                               "got": got_val, "delta_frac": delta_frac,
                               "verdict": "SKIP"})
                continue
            if direction == "higher":
                regressed = got_val < ref_val * (1.0 - tolerance)
            else:
                regressed = got_val > ref_val * (1.0 + tolerance)
            verdict = "REGRESSION" if regressed else "OK"
            deltas.append({"row": name, "metric": metric,
                           "direction": direction, "ref": ref_val,
                           "got": got_val, "delta_frac": delta_frac,
                           "verdict": verdict})
            if regressed:
                failures.append(
                    f"{name}: {metric} {got_val:.4f} vs reference "
                    f"{ref_val:.4f} ({delta_frac:+.1%}, "
                    f"{direction}-is-better, tolerance {tolerance:.0%})")
    return deltas, failures


def render_deltas(deltas: list[dict], tolerance: float) -> str:
    """The per-row/per-metric delta table as aligned text."""
    headers = ["row", "metric", "dir", "reference", "measured", "delta",
               "verdict"]
    rows = [[d["row"], d["metric"], d["direction"], f"{d['ref']:.4f}",
             f"{d['got']:.4f}", f"{d['delta_frac']:+.1%}", d["verdict"]]
            for d in deltas]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths))
              for row in rows]
    lines.append(f"(tolerance {tolerance:.0%}; improvements never fail)")
    return "\n".join(lines)


def skipped_wall_note(ref_rows: dict, got_rows: dict,
                      deltas: list[dict]) -> str | None:
    """One-line "why did the guard skip wall metrics" note, or ``None``.

    CI logs must show *why* a guard passed: when ``host_cores`` differ the
    wall comparisons silently turn into SKIP verdicts, and without this
    line a green check reads as "wall time guarded" when it was not.
    """
    skipped = sum(1 for d in deltas if d["verdict"] == "SKIP")
    if not skipped:
        return None
    pairs = {(ref.get("host_cores"), got_rows[name].get("host_cores"))
             for name, ref in ref_rows.items()
             if name in got_rows and host_cores_differ(ref, got_rows[name])}
    detail = ", ".join(f"{a} vs {b}" for a, b in sorted(pairs))
    return (f"skipped {skipped} wall metric(s): host_cores differ "
            f"({detail}) — measured on a different machine than the "
            "reference")


def rows_from(doc: dict, key: str) -> dict:
    """The named row mapping of a bench document."""
    if key not in doc:
        raise KeyError(
            f"key {key!r} not in document (has: {sorted(doc)})")
    rows = doc[key]
    if not isinstance(rows, dict):
        raise TypeError(f"key {key!r} is not a row mapping")
    return rows


# ------------------------------------------------------------------ #
# The ledger store
# ------------------------------------------------------------------ #

def config_fingerprint(config: dict) -> str:
    """Stable 12-hex-digit hash of a JSON-able configuration mapping."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def append_ledger(ledger_dir: str | Path, bench: str, rows: dict,
                  config: dict, *, host_cores: int | None = None,
                  ts: float | None = None) -> list[dict]:
    """Append one observation per row to ``<ledger_dir>/<bench>.jsonl``.

    ``rows`` is a bench-document row mapping (``{"2m": {"total_s": ...}}``);
    only numeric metrics are stored.  A row's own ``host_cores`` tag wins
    over the argument.  Returns the entries written.
    """
    ledger_dir = Path(ledger_dir)
    ledger_dir.mkdir(parents=True, exist_ok=True)
    fingerprint = config_fingerprint(config)
    ts = time.time() if ts is None else ts
    entries = []
    for row_name, row in sorted(rows.items()):
        if not isinstance(row, dict):
            continue
        metrics = {k: row[k] for k in numeric_metrics(row)}
        if not metrics:
            continue
        entries.append({
            "schema_version": LEDGER_SCHEMA_VERSION,
            "ts": round(ts, 3),
            "bench": bench,
            "row": row_name,
            "fingerprint": fingerprint,
            "host_cores": row.get("host_cores", host_cores),
            "config": config,
            "metrics": metrics,
        })
    path = ledger_dir / f"{bench}.jsonl"
    with path.open("a") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True, default=str) + "\n")
    return entries


def load_ledger(ledger_dir: str | Path,
                bench: str | None = None) -> list[dict]:
    """All ledger entries (optionally of one bench), oldest first.

    Unparseable lines are skipped with their position preserved in the
    returned entries' order — an interrupted CI append must not poison
    every later report.
    """
    ledger_dir = Path(ledger_dir)
    if not ledger_dir.is_dir():
        return []
    paths = ([ledger_dir / f"{bench}.jsonl"] if bench
             else sorted(ledger_dir.glob("*.jsonl")))
    entries: list[dict] = []
    for path in paths:
        if not path.is_file():
            continue
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict) and "metrics" in entry:
                entries.append(entry)
    entries.sort(key=lambda e: e.get("ts", 0.0))
    return entries


def ewma(values: list[float], alpha: float = EWMA_ALPHA) -> float:
    """Exponentially-weighted moving average, newest value weighted last."""
    if not values:
        raise ValueError("ewma of an empty series")
    acc = values[0]
    for v in values[1:]:
        acc = alpha * v + (1.0 - alpha) * acc
    return acc


def detect_drift(values: list[float], tolerance: float,
                 alpha: float = EWMA_ALPHA) -> dict:
    """Latest value vs the EWMA of its priors, with a tolerance band.

    Returns ``{"latest", "ewma", "delta_frac", "band", "verdict"}``;
    verdict is ``OK`` / ``DRIFT`` / ``NEW`` (fewer than two points).
    The comparison is symmetric — a metric falling *below* the band is
    also drift (a too-good-to-be-true wall time usually means the bench
    stopped measuring what it used to).
    """
    if len(values) < 2:
        return {"latest": values[-1] if values else None, "ewma": None,
                "delta_frac": None, "band": tolerance, "verdict": "NEW"}
    baseline = ewma(values[:-1], alpha)
    latest = values[-1]
    delta_frac = (latest / baseline - 1.0) if baseline else 0.0
    verdict = "DRIFT" if abs(delta_frac) > tolerance else "OK"
    return {"latest": latest, "ewma": baseline,
            "delta_frac": delta_frac, "band": tolerance, "verdict": verdict}


def ledger_report(entries: list[dict], tolerance: float = 0.15) -> list[dict]:
    """Per-(bench, row, fingerprint, metric) trajectory rows with drift.

    Wall-clock metrics restrict their series to entries measured with the
    same ``host_cores`` as the latest observation; modeled and counted
    metrics chain across machines.
    """
    groups: dict[tuple, list[dict]] = {}
    for e in entries:
        key = (e["bench"], e["row"], e.get("fingerprint"))
        groups.setdefault(key, []).append(e)
    report = []
    for (bench, row, fingerprint), series in sorted(groups.items()):
        metric_names = sorted({m for e in series for m in e["metrics"]})
        latest_cores = series[-1].get("host_cores")
        for metric in metric_names:
            points = [e for e in series if metric in e["metrics"]]
            if is_wall_metric(metric):
                points = [e for e in points
                          if e.get("host_cores") == latest_cores]
            values = [float(e["metrics"][metric]) for e in points]
            if not values:
                continue
            drift = detect_drift(values, tolerance)
            report.append({
                "bench": bench, "row": row, "fingerprint": fingerprint,
                "metric": metric, "n": len(values),
                "first": values[0], "latest": values[-1],
                "ewma": drift["ewma"], "delta_frac": drift["delta_frac"],
                "verdict": drift["verdict"],
            })
    return report


def render_ledger_report(report: list[dict], tolerance: float = 0.15,
                         drift_only: bool = False) -> str:
    """The trajectory table: one row per tracked metric series."""
    shown = [r for r in report if not drift_only or r["verdict"] == "DRIFT"]
    rows = [[r["bench"], r["row"], r["metric"], str(r["n"]),
             f"{r['first']:.4f}",
             f"{r['ewma']:.4f}" if r["ewma"] is not None else "-",
             f"{r['latest']:.4f}",
             f"{r['delta_frac']:+.1%}" if r["delta_frac"] is not None
             else "-",
             r["verdict"]]
            for r in shown]
    table = format_table(
        ["bench", "row", "metric", "n", "first", "ewma", "latest",
         "vs ewma", "verdict"],
        rows, title="performance ledger trajectories",
        align=["l", "l", "l", "r", "r", "r", "r", "r", "l"])
    drifted = sum(1 for r in report if r["verdict"] == "DRIFT")
    footer = (f"{len(report)} tracked series, {drifted} drifted "
              f"(EWMA band +/-{tolerance:.0%})")
    return table + "\n" + footer
