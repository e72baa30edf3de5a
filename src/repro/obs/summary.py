"""Human-readable top-N report over a Chrome trace file.

``python -m repro obs summary trace.json`` answers "where did this run
spend its time" from the exported trace alone: spans aggregate by name
across every process/thread track, ranked by total busy seconds, with the
track count and per-call statistics alongside.  Because concurrent tracks
each accumulate their own busy time, the column total bounds — and may
exceed — the wall-clock window, exactly like per-stream profiler output.
"""

from __future__ import annotations

from repro.util.tables import format_table


def summarize_trace(doc: dict, top_n: int = 15) -> dict:
    """Aggregate a trace document's complete events by span name.

    Returns ``{"wall_s", "busy_s", "n_spans", "n_tracks", "rows", "procs"}``
    where ``rows`` is the top-``top_n`` list of per-name dicts sorted by
    total duration descending and ``procs`` aggregates the same events per
    process track (pool workers trace onto their own processes).
    """
    all_events = doc.get("traceEvents", [])
    events = [e for e in all_events if e.get("ph") == "X"]
    proc_names = {e["pid"]: e.get("args", {}).get("name", "")
                  for e in all_events
                  if e.get("ph") == "M" and e.get("name") == "process_name"}
    by_name: dict[str, dict] = {}
    by_proc: dict[int, dict] = {}
    tracks: set[tuple[int, int]] = set()
    t_min, t_max = float("inf"), float("-inf")
    for e in events:
        dur_s = e["dur"] / 1e6
        t_min = min(t_min, e["ts"])
        t_max = max(t_max, e["ts"] + e["dur"])
        tracks.add((e["pid"], e["tid"]))
        entry = by_name.get(e["name"])
        if entry is None:
            by_name[e["name"]] = {"name": e["name"], "count": 1,
                                  "total_s": dur_s, "min_s": dur_s,
                                  "max_s": dur_s}
        else:
            entry["count"] += 1
            entry["total_s"] += dur_s
            entry["min_s"] = min(entry["min_s"], dur_s)
            entry["max_s"] = max(entry["max_s"], dur_s)
        pentry = by_proc.get(e["pid"])
        if pentry is None:
            name = proc_names.get(e["pid"], str(e["pid"]))
            by_proc[e["pid"]] = {"proc": name, "count": 1, "busy_s": dur_s,
                                 "tracks": {e["tid"]}}
        else:
            pentry["count"] += 1
            pentry["busy_s"] += dur_s
            pentry["tracks"].add(e["tid"])

    rows = sorted(by_name.values(), key=lambda r: -r["total_s"])
    wall_s = (t_max - t_min) / 1e6 if events else 0.0
    procs = [{"proc": p["proc"], "count": p["count"],
              "busy_s": p["busy_s"],
              "n_tracks": len(p["tracks"]),
              "utilization": p["busy_s"] / wall_s if wall_s > 0 else 0.0}
             for p in sorted(by_proc.values(), key=lambda p: p["proc"])]
    return {
        "wall_s": wall_s,
        "busy_s": sum(r["total_s"] for r in rows),
        "n_spans": len(events),
        "n_tracks": len(tracks),
        "rows": rows[:top_n],
        "procs": procs,
    }


def render_summary(doc: dict, top_n: int = 15) -> str:
    """The rendered top-N table plus the wall/busy footer."""
    agg = summarize_trace(doc, top_n=top_n)
    wall = agg["wall_s"]
    table_rows = [
        [r["name"], str(r["count"]),
         f"{r['total_s'] * 1e3:.2f}",
         f"{r['total_s'] / r['count'] * 1e3:.3f}",
         f"{r['max_s'] * 1e3:.3f}",
         f"{r['total_s'] / wall:.1%}" if wall > 0 else "-"]
        for r in agg["rows"]
    ]
    table = format_table(
        ["span", "count", "total ms", "mean ms", "max ms", "% of wall"],
        table_rows,
        title=f"top {len(table_rows)} spans by total time",
        align=["l", "r", "r", "r", "r", "r"])
    footer = (f"wall {wall:.4f}s across {agg['n_tracks']} track(s); "
              f"busy {agg['busy_s']:.4f}s over {agg['n_spans']} spans "
              "(busy may exceed wall under concurrency)")
    out = table + "\n" + footer
    if len(agg["procs"]) > 1:
        # More than one process track (pool workers):
        # show where each spent its time relative to the run's wall clock.
        proc_rows = [
            [p["proc"], str(p["n_tracks"]), str(p["count"]),
             f"{p['busy_s'] * 1e3:.2f}",
             f"{p['utilization']:.1%}"]
            for p in agg["procs"]
        ]
        out += "\n" + format_table(
            ["process", "tracks", "spans", "busy ms", "utilization"],
            proc_rows,
            title="per-process utilization",
            align=["l", "r", "r", "r", "r"])
    return out
