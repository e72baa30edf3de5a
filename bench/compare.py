"""Compare two benchmark result files, one verdict per workload and metric.

    python bench/compare.py BASE.json NEW.json

Both files are what ``bench/run.py --out PATH`` writes.  For every workload
and every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median, quartiles and sample count, the change of the median, the bound the
benchmark fixes for that metric, and one verdict:

``better``
    the new median beats the base median by more than the base's own
    interquartile range;
``no worse``
    the new median is not worse than the base median by more than the bound;
``regressed``
    the new median is worse than the base median by more than the bound;
``unresolved``
    a side's interquartile range, as a share of its median, is wider than
    the bound, and not every new sample beats every base sample, so the two
    sets cannot tell a change of that size from noise.

One pair of files is one pair of runs.  A claimed gain needs the rule in
``bench/README.md`` (at least ten alternating pairs); this tool gives the
per-pair reading.  Exits 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BETTER, NO_WORSE, REGRESSED, UNRESOLVED = (
    "better", "no worse", "regressed", "unresolved")


def summarize(samples: list[float]) -> dict:
    """Median, quartiles and count of ``samples`` (quartiles as
    ``statistics.quantiles(samples, n=4)`` gives them)."""
    if not samples:
        raise ValueError("no samples to summarize")
    if len(samples) == 1:
        q1 = q3 = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples)}


def iqr_share(summary: dict) -> float:
    """Interquartile range as a share of the median."""
    iqr = summary["q3"] - summary["q1"]
    if iqr == 0:
        return 0.0
    return iqr / abs(summary["median"]) if summary["median"] else float("inf")


def verdict(base: dict, new: dict, bound: float, better: str) -> str:
    """Classify ``new`` against ``base`` for one metric.

    ``base``/``new`` are :func:`summarize` dicts, optionally with their
    ``samples``; ``bound`` is the share of the base median by which the
    metric may worsen; ``better`` is ``"lower"`` or ``"higher"``.
    """
    sign = 1.0 if better == "lower" else -1.0
    scale = abs(base["median"]) or 1.0
    worsening = sign * (new["median"] - base["median"]) / scale
    if max(iqr_share(base), iqr_share(new)) > bound:
        base_s, new_s = base.get("samples"), new.get("samples")
        dominates = bool(base_s and new_s) and (
            max(new_s) < min(base_s) if better == "lower"
            else min(new_s) > max(base_s))
        if not dominates:
            return UNRESOLVED
    if worsening > bound:
        return REGRESSED
    if -worsening * scale > base["q3"] - base["q1"]:
        return BETTER
    return NO_WORSE


def compare(base_doc: dict, new_doc: dict, spec: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) present on both sides."""
    rows = []
    for workload, base_w in base_doc["workloads"].items():
        new_w = new_doc["workloads"].get(workload)
        if new_w is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base, new = base_w["metrics"].get(name), new_w["metrics"].get(name)
            if base is None or new is None:
                continue
            scale = abs(base["median"]) or 1.0
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "base": base, "new": new, "bound": metric["bound"],
                "change": (new["median"] - base["median"]) / scale,
                "verdict": verdict(base, new, metric["bound"],
                                   metric["better"]),
            })
    return rows


def _side(s: dict) -> str:
    return (f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
            f"n={s['n']}")


def render(rows: list[dict]) -> str:
    header = ("workload", "metric", "base median [q1, q3] n",
              "new median [q1, q3] n", "change", "bound", "verdict")
    body = [(r["workload"], f"{r['metric']} ({r['unit']})", _side(r["base"]),
             _side(r["new"]), f"{r['change']:+.2%}", f"{r['bound']:.1%}",
             r["verdict"]) for r in rows]
    widths = [max(len(str(row[i])) for row in (header, *body))
              for i in range(len(header))]
    return "\n".join("  ".join(str(c).ljust(w) for c, w in zip(row, widths))
                     for row in (header, *body))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="results of the parent")
    parser.add_argument("new", type=Path, help="results of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(json.loads(args.base.read_text()),
                   json.loads(args.new.read_text()), spec)
    print(render(rows))
    return 1 if any(r["verdict"] == REGRESSED for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
