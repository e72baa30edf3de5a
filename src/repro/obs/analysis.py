"""Trace analytics: critical paths, self-time attribution, run diffs.

PR 4 gave the pipeline raw spans and counters; this module is the layer
that *answers questions* with them, from the exported Chrome Trace
document alone:

* :func:`critical_path` — the longest dependency chain of span work over
  the multi-track timeline (the main thread, trial-chunk stream threads,
  Smith-Waterman pool workers): which spans bound the run, how
  much slack (idle waiting) separates them, and which proc/track carries
  the bounding share.
* :func:`attribute` — where the measured wall went: each span name's
  exclusive (self) time on its own track, with the time a span's
  children leave uncovered charged to ``<name> (unspanned)``, so each
  track's rows sum to its top-level spans' wall.
* :func:`diff_traces` — per-span-name and per-process deltas between two
  traced runs ("did this change shift time from alignment into
  transfers?").

Everything consumes the trace *document* (not live tracer state) so the
same analysis runs on a file produced last week, in CI, or on another
machine.  All renderers are deterministic functions of their inputs —
the ``obs diff`` golden test depends on it.

Critical-path model
-------------------
The tracer records intervals, not explicit dependency edges, so the path
is reconstructed the way profiler UIs do it: walk the timeline backward
from the last span end; at each point the *innermost* span active on any
track is a path candidate, and the candidate whose start reaches
furthest back bounds that stretch of the run.  Gaps where no track is
busy count as slack (charged to the following path entry — the work the
run sat waiting for).  The resulting path length equals wall time minus
globally-idle time, which yields the invariants the property tests
assert: ``max(single-track busy) <= path_s <= wall_s``.
"""

from __future__ import annotations

from repro.util.tables import format_table

# ------------------------------------------------------------------ #
# Trace-document parsing
# ------------------------------------------------------------------ #

def trace_spans(doc: dict) -> list[dict]:
    """Flatten a trace document's complete events to span dicts (seconds).

    Each span is ``{"name", "proc", "track", "start", "end", "dur",
    "args"}`` with times in seconds since the trace epoch and proc/track
    resolved through the metadata events.
    """
    events = doc.get("traceEvents", [])
    proc_names: dict[int, str] = {}
    track_names: dict[tuple[int, int], str] = {}
    for e in events:
        if e.get("ph") != "M":
            continue
        if e["name"] == "process_name":
            proc_names[e["pid"]] = e["args"]["name"]
        elif e["name"] == "thread_name":
            track_names[(e["pid"], e["tid"])] = e["args"]["name"]
    spans = []
    for e in events:
        if e.get("ph") != "X":
            continue
        start = e["ts"] / 1e6
        dur = e["dur"] / 1e6
        spans.append({
            "name": e["name"],
            "proc": proc_names.get(e["pid"], str(e["pid"])),
            "track": track_names.get((e["pid"], e["tid"]), str(e["tid"])),
            "start": start,
            "end": start + dur,
            "dur": dur,
            "args": e.get("args", {}),
        })
    return spans


def leaf_spans(spans: list[dict]) -> list[dict]:
    """Innermost spans per (proc, track): the atomic work intervals.

    A span is a leaf when no other span on its track nests strictly
    inside it — ``gpclust.run`` is scaffolding around the chunk rounds
    that actually occupy the device, and counting both would double every
    busy second.
    """
    by_track: dict[tuple[str, str], list[dict]] = {}
    for s in spans:
        by_track.setdefault((s["proc"], s["track"]), []).append(s)
    leaves: list[dict] = []
    for members in by_track.values():
        members.sort(key=lambda s: (s["start"], -s["end"]))
        for i, s in enumerate(members):
            has_child = False
            for other in members[i + 1:]:
                if other["start"] >= s["end"]:
                    break
                if other is not s and (other["start"] >= s["start"]
                                       and other["end"] <= s["end"]
                                       and other["dur"] < s["dur"]):
                    has_child = True
                    break
            if not has_child:
                leaves.append(s)
    leaves.sort(key=lambda s: (s["start"], s["end"]))
    return leaves


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    """Measure of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def track_busy_seconds(spans: list[dict]) -> dict[tuple[str, str], float]:
    """Union busy seconds per (proc, track) over the *leaf* intervals."""
    leaves = leaf_spans(spans)
    busy: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for s in leaves:
        busy.setdefault((s["proc"], s["track"]), []).append(
            (s["start"], s["end"]))
    return {key: _union_seconds(iv) for key, iv in busy.items()}


# ------------------------------------------------------------------ #
# Critical-path extraction
# ------------------------------------------------------------------ #

def critical_path(doc: dict) -> dict:
    """Extract the bounding chain of spans from a trace document.

    Returns::

        {"wall_s", "path_s", "idle_s", "n_entries",
         "bounding_proc", "bounding_track", "bounding_share",
         "by_proc": {proc: on_path_s},
         "entries": [{"name", "proc", "track", "start_s", "end_s",
                      "span_s", "on_path_s", "slack_s"}, ...]}

    ``entries`` are in timeline order.  ``on_path_s`` is the stretch of
    the run each entry bounds (entries never overlap; their sum is
    ``path_s``); ``span_s`` is the span's full duration; ``slack_s`` is
    the globally-idle gap immediately *before* the entry — time the run
    spent waiting for nothing observable.  ``path_s + idle_s == wall_s``.
    """
    spans = trace_spans(doc)
    leaves = leaf_spans(spans)
    if not leaves:
        return {"wall_s": 0.0, "path_s": 0.0, "idle_s": 0.0, "n_entries": 0,
                "bounding_proc": None, "bounding_track": None,
                "bounding_share": 0.0, "by_proc": {}, "entries": []}
    t_min = min(s["start"] for s in leaves)
    t_max = max(s["end"] for s in leaves)
    eps = 1e-12
    # Backward walk: repeatedly take the span active just before the
    # cursor whose start reaches furthest back, else jump the idle gap.
    entries_rev: list[dict] = []
    t = t_max
    while t > t_min + eps:
        # Active just before the cursor; strict start < t guarantees the
        # cursor moves every iteration even with exactly-equal timestamps.
        active = [s for s in leaves
                  if s["start"] < t and s["end"] >= t - eps]
        if active:
            s = min(active, key=lambda s: (s["start"], -s["dur"]))
            entries_rev.append({
                "name": s["name"], "proc": s["proc"], "track": s["track"],
                "start_s": s["start"] - t_min, "end_s": s["end"] - t_min,
                "span_s": s["dur"], "on_path_s": t - s["start"],
                "slack_s": 0.0,
            })
            t = s["start"]
        else:
            # Idle gap: every leaf that started before t also ended
            # before it (else it would be active), so the max is over a
            # non-empty set as long as t > t_min.
            prev_end = max(s["end"] for s in leaves if s["end"] < t)
            if entries_rev:
                entries_rev[-1]["slack_s"] += t - prev_end
            t = prev_end
    entries = list(reversed(entries_rev))
    path_s = sum(e["on_path_s"] for e in entries)
    idle_s = sum(e["slack_s"] for e in entries)
    by_proc: dict[str, float] = {}
    by_track: dict[tuple[str, str], float] = {}
    for e in entries:
        by_proc[e["proc"]] = by_proc.get(e["proc"], 0.0) + e["on_path_s"]
        key = (e["proc"], e["track"])
        by_track[key] = by_track.get(key, 0.0) + e["on_path_s"]
    bounding = max(by_track.items(), key=lambda kv: kv[1])
    for e in entries:
        for key in ("start_s", "end_s", "span_s", "on_path_s", "slack_s"):
            e[key] = round(e[key], 6)
    return {
        "wall_s": round(t_max - t_min, 6),
        "path_s": round(path_s, 6),
        "idle_s": round(idle_s, 6),
        "n_entries": len(entries),
        "bounding_proc": bounding[0][0],
        "bounding_track": bounding[0][1],
        "bounding_share": round(bounding[1] / path_s, 4) if path_s else 0.0,
        "by_proc": {proc: round(s, 6)
                    for proc, s in sorted(by_proc.items())},
        "entries": entries,
    }


def render_critical_path(cp: dict, top_n: int = 25) -> str:
    """The critical path as an aligned table plus the bounding footer.

    Consecutive path entries with the same span name and coordinates
    collapse into one row (count column) so a 40-chunk device loop reads
    as one line, not forty.
    """
    merged: list[dict] = []
    for e in cp["entries"]:
        if (merged and merged[-1]["name"] == e["name"]
                and merged[-1]["proc"] == e["proc"]
                and merged[-1]["track"] == e["track"]):
            m = merged[-1]
            m["count"] += 1
            m["on_path_s"] += e["on_path_s"]
            m["slack_s"] += e["slack_s"]
            m["end_s"] = e["end_s"]
        else:
            merged.append({**e, "count": 1})
    rows = [[m["name"], f"{m['proc']}/{m['track']}", str(m["count"]),
             f"{m['on_path_s'] * 1e3:.2f}", f"{m['slack_s'] * 1e3:.2f}",
             f"{m['on_path_s'] / cp['path_s']:.1%}" if cp["path_s"] else "-"]
            for m in merged]
    dropped = max(0, len(rows) - top_n)
    if dropped:
        kept = sorted(range(len(rows)),
                      key=lambda i: -merged[i]["on_path_s"])[:top_n]
        rows = [rows[i] for i in sorted(kept)]
    table = format_table(
        ["span", "proc/track", "n", "on-path ms", "slack ms", "% of path"],
        rows, title="critical path (timeline order)",
        align=["l", "l", "r", "r", "r", "r"])
    footer = (f"wall {cp['wall_s']:.4f}s = path {cp['path_s']:.4f}s "
              f"+ idle {cp['idle_s']:.4f}s; bounded by "
              f"{cp['bounding_proc']}/{cp['bounding_track']} "
              f"({cp['bounding_share']:.1%} of path)")
    if dropped:
        footer += f"\n({dropped} smaller path row(s) not shown)"
    return table + "\n" + footer


# ------------------------------------------------------------------ #
# Self-time attribution
# ------------------------------------------------------------------ #

def _track_self_times(members: list[dict]) -> tuple[dict, float]:
    """Self seconds per row key on one track, and the track's wall.

    Spans nest by containment: a span that starts inside an open span is
    its child, clipped to the parent's end.  A leaf's time is charged to
    its name; a parent's time not covered by its children to
    ``<name> (unspanned)``.  Every instant of a top-level span is charged
    to exactly one row, so the rows sum to the top-level spans' wall.
    """
    rows: dict[str, list[float]] = {}  # key -> [self_s, span_s, count]
    wall = 0.0
    # Open spans, outermost first: [name, start, end, covered_s, has_child].
    stack: list[list] = []

    def close(entry: list) -> None:
        name, start, end, covered, has_child = entry
        key = f"{name} (unspanned)" if has_child else name
        row = rows.setdefault(key, [0.0, 0.0, 0])
        row[0] += max(0.0, end - start - covered)
        row[1] += end - start
        row[2] += 1

    for s in sorted(members, key=lambda s: (s["start"], -s["end"])):
        while stack and s["start"] >= stack[-1][2]:
            close(stack.pop())
        start, end = s["start"], s["end"]
        if stack:
            parent = stack[-1]
            end = min(end, parent[2])
            parent[3] += end - start
            parent[4] = True
        else:
            wall += end - start
        stack.append([s["name"], start, end, 0.0, False])
    while stack:
        close(stack.pop())
    return rows, wall


def attribute(doc: dict) -> dict:
    """Where one traced run's measured wall went: self time per span.

    Each track (a thread of a process) is attributed on its own.  A span's
    self time is its wall minus the time its children cover; a span with
    children reports that remainder as ``<name> (unspanned)``, the time no
    finer span explains.  Per track the rows sum to the wall of its
    top-level spans (``gpclust.run`` on the main thread's track), so no second
    is counted twice.

    Returns::

        {"wall_s",
         "tracks": [{"proc", "track", "wall_s", "self_s"}, ...],
         "rows": [{"rank", "name", "proc", "track", "self_s", "span_s",
                   "count", "share"}, ...],
         "reconciliation": {"busy_s", "summary_wall_s"?,
                            "wall_drift_frac"?}}

    ``rows`` are ranked by ``self_s``; ``share`` is a fraction of the
    trace's wall and ``span_s`` the summed duration of the ``count`` spans
    charged to the row (for an ``(unspanned)`` row, ``self_s / span_s`` is
    the uncovered share of its parent).  ``reconciliation`` checks the wall
    against the run summary embedded in the trace, when there is one.
    """
    spans = trace_spans(doc)
    wall = (max(s["end"] for s in spans) - min(s["start"] for s in spans)
            if spans else 0.0)
    by_track: dict[tuple[str, str], list[dict]] = {}
    for s in spans:
        by_track.setdefault((s["proc"], s["track"]), []).append(s)
    tracks, rows = [], []
    for (proc, track), members in sorted(by_track.items()):
        track_rows, track_wall = _track_self_times(members)
        tracks.append({"proc": proc, "track": track,
                       "wall_s": round(track_wall, 6),
                       "self_s": round(sum(r[0] for r in track_rows.values()),
                                       6)})
        rows.extend({"name": key, "proc": proc, "track": track,
                     "self_s": self_s, "span_s": round(span_s, 6),
                     "count": count}
                    for key, (self_s, span_s, count) in track_rows.items())
    rows.sort(key=lambda r: (-r["self_s"], r["name"], r["proc"], r["track"]))
    for rank, r in enumerate(rows, 1):
        r["rank"] = rank
        r["share"] = round(r["self_s"] / wall, 4) if wall else 0.0
        r["self_s"] = round(r["self_s"], 6)

    reconciliation = {"busy_s": round(sum(t["self_s"] for t in tracks), 6)}
    embedded = doc.get("otherData", {}).get("spans")
    if embedded and embedded.get("wall_s"):
        drift = abs(wall - embedded["wall_s"]) / embedded["wall_s"]
        reconciliation.update({
            "summary_wall_s": embedded["wall_s"],
            "wall_drift_frac": round(drift, 6),
        })
    return {"wall_s": round(wall, 6), "tracks": tracks, "rows": rows,
            "reconciliation": reconciliation}


def render_attribution(report: dict) -> str:
    """The self-time ranking as a table, plus each track's total."""
    table_rows = [[str(r["rank"]), r["name"], f"{r['proc']}/{r['track']}",
                   str(r["count"]), f"{r['self_s'] * 1e3:.2f}",
                   f"{r['share']:.1%}"]
                  for r in report["rows"]]
    out = format_table(
        ["#", "span", "proc/track", "n", "self ms", "% of wall"],
        table_rows, title="where the measured wall went (self time per span)",
        align=["r", "l", "l", "r", "r", "r"])
    for t in report["tracks"]:
        out += (f"\n{t['proc']}/{t['track']}: rows {t['self_s'] * 1e3:.2f} ms "
                f"= top-level spans {t['wall_s'] * 1e3:.2f} ms")
    out += f"\nwall {report['wall_s']:.4f}s"
    return out


# ------------------------------------------------------------------ #
# Run diffs
# ------------------------------------------------------------------ #

def diff_traces(doc_a: dict, doc_b: dict) -> dict:
    """Compare two traced runs: per-span-name and per-process deltas.

    Returns ``{"wall": {...}, "spans": [...], "procs": [...]}`` where
    each span row is ``{"name", "a_s", "b_s", "delta_s", "delta_frac",
    "a_count", "b_count"}`` sorted by ``|delta_s|`` descending (names
    present in only one run appear with 0.0 on the other side), and each
    proc row carries the same shape for per-process busy time.
    """

    def by_name(doc):
        totals: dict[str, dict] = {}
        for s in trace_spans(doc):
            entry = totals.setdefault(s["name"], {"total": 0.0, "count": 0})
            entry["total"] += s["dur"]
            entry["count"] += 1
        return totals

    def by_proc(doc):
        procs: dict[str, float] = {}
        for (proc, _t), busy in track_busy_seconds(trace_spans(doc)).items():
            procs[proc] = procs.get(proc, 0.0) + busy
        return procs

    a_names, b_names = by_name(doc_a), by_name(doc_b)
    span_rows = []
    for name in sorted(set(a_names) | set(b_names)):
        a = a_names.get(name, {"total": 0.0, "count": 0})
        b = b_names.get(name, {"total": 0.0, "count": 0})
        delta = b["total"] - a["total"]
        span_rows.append({
            "name": name, "a_s": round(a["total"], 6),
            "b_s": round(b["total"], 6), "delta_s": round(delta, 6),
            "delta_frac": round(delta / a["total"], 4) if a["total"] else None,
            "a_count": a["count"], "b_count": b["count"],
        })
    span_rows.sort(key=lambda r: (-abs(r["delta_s"]), r["name"]))

    a_procs, b_procs = by_proc(doc_a), by_proc(doc_b)
    proc_rows = []
    for proc in sorted(set(a_procs) | set(b_procs)):
        a_busy = a_procs.get(proc, 0.0)
        b_busy = b_procs.get(proc, 0.0)
        proc_rows.append({
            "proc": proc, "a_s": round(a_busy, 6), "b_s": round(b_busy, 6),
            "delta_s": round(b_busy - a_busy, 6),
        })

    def wall_of(doc):
        spans = trace_spans(doc)
        if not spans:
            return 0.0
        return (max(s["end"] for s in spans)
                - min(s["start"] for s in spans))

    wall_a, wall_b = wall_of(doc_a), wall_of(doc_b)
    return {
        "wall": {"a_s": round(wall_a, 6), "b_s": round(wall_b, 6),
                 "delta_s": round(wall_b - wall_a, 6),
                 "delta_frac": round((wall_b - wall_a) / wall_a, 4)
                               if wall_a else None},
        "spans": span_rows,
        "procs": proc_rows,
    }


def render_diff(diff: dict, top_n: int = 15) -> str:
    """The trace diff as tables (span deltas ranked by magnitude)."""
    rows = [[r["name"], str(r["a_count"]), str(r["b_count"]),
             f"{r['a_s'] * 1e3:.2f}", f"{r['b_s'] * 1e3:.2f}",
             f"{r['delta_s'] * 1e3:+.2f}",
             f"{r['delta_frac']:+.1%}" if r["delta_frac"] is not None
             else "new" if r["b_s"] else "gone"]
            for r in diff["spans"][:top_n]]
    out = format_table(
        ["span", "n(A)", "n(B)", "A ms", "B ms", "delta ms", "delta"],
        rows, title=f"top {len(rows)} span deltas (B vs A)",
        align=["l", "r", "r", "r", "r", "r", "r"])
    proc_rows = [[r["proc"], f"{r['a_s'] * 1e3:.2f}",
                  f"{r['b_s'] * 1e3:.2f}", f"{r['delta_s'] * 1e3:+.2f}"]
                 for r in diff["procs"]]
    out += "\n" + format_table(
        ["process", "A busy ms", "B busy ms", "delta ms"], proc_rows,
        title="per-process busy deltas", align=["l", "r", "r", "r"])
    w = diff["wall"]
    frac = f" ({w['delta_frac']:+.1%})" if w["delta_frac"] is not None else ""
    out += (f"\nwall A {w['a_s']:.4f}s -> B {w['b_s']:.4f}s "
            f"({w['delta_s']:+.4f}s{frac})")
    return out
