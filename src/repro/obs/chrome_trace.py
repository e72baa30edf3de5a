"""Chrome Trace Event export: span records -> Perfetto-loadable JSON.

The output follows the Trace Event Format's JSON-object flavor: a
``traceEvents`` list of complete (``"ph": "X"``) duration events plus
metadata (``"ph": "M"``) events naming processes and threads.  Load the
file in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

Coordinate mapping: each distinct span ``proc`` label becomes a trace
*process* (the driver is ``main``; Smith-Waterman pool workers are
``sw-worker-<pid>``) and each distinct ``track`` label within it becomes a
trace *thread* (the main thread, trial-chunk streams ``stream_N``).
Timestamps are microseconds relative to the tracer's epoch, so every track
shares one timeline.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.obs.tracer import SpanRecord

SCHEMA_VERSION = 1


def to_chrome_trace(records: list[SpanRecord], t0: float,
                    metadata: dict | None = None) -> dict:
    """Build the Chrome Trace JSON document for ``records``.

    Parameters
    ----------
    records:
        Finished spans (any order; workers' records included).
    t0:
        The tracer epoch; event ``ts`` values are microseconds since it.
    metadata:
        Extra JSON-serializable payload stored under ``otherData`` (the
        format reserves it for exactly this) — run parameters, metric
        snapshots, the reported component breakdown.
    """
    procs: dict[str, int] = {}
    tracks: dict[tuple[str, str], int] = {}
    events: list[dict] = []

    def pid_of(proc: str) -> int:
        pid = procs.get(proc)
        if pid is None:
            # "main" gets pid 1; others follow in order of appearance.
            pid = procs[proc] = len(procs) + 1
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": proc}})
        return pid

    def tid_of(proc: str, track: str) -> tuple[int, int]:
        pid = pid_of(proc)
        key = (proc, track)
        tid = tracks.get(key)
        if tid is None:
            tid = tracks[key] = sum(1 for p, _ in tracks if p == proc) + 1
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid, "args": {"name": track}})
        return pid, tid

    # Ensure the driver process exists (and is pid 1) even for empty traces.
    pid_of("main")

    for r in sorted(records, key=lambda r: (r.proc, r.track, r.start)):
        pid, tid = tid_of(r.proc, r.track)
        event = {
            "name": r.name,
            "ph": "X",
            "ts": (r.start - t0) * 1e6,
            "dur": r.duration * 1e6,
            "pid": pid,
            "tid": tid,
        }
        if r.attrs:
            event["args"] = {k: _jsonable(v) for k, v in r.attrs.items()}
        events.append(event)

    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema_version": SCHEMA_VERSION,
                      "exporter": "repro.obs"},
    }
    if metadata:
        doc["otherData"].update(metadata)
    return doc


def _jsonable(value):
    """Coerce numpy scalars and other oddballs to JSON-native types."""
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def write_chrome_trace(path: str | Path, records: list[SpanRecord],
                       t0: float, metadata: dict | None = None) -> dict:
    """Export and write the trace document; returns it.

    The document goes to a temporary file in the same directory, which
    then replaces ``path`` in one step: an interrupted write leaves any
    previous trace intact and no partial file behind.
    """
    doc = to_chrome_trace(records, t0, metadata=metadata)
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(doc) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return doc


def load_trace(path: str | Path) -> dict:
    """Read a trace document written by :func:`write_chrome_trace`."""
    doc = json.loads(Path(path).read_text())
    validate_chrome_trace(doc)
    return doc


def validate_chrome_trace(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed trace document.

    Checks the invariants Perfetto's importer relies on: a ``traceEvents``
    list whose members carry the required per-phase fields with sane types
    and non-negative times, and integer pid/tid coordinates that metadata
    events have named.
    """
    if not isinstance(doc, dict):
        raise ValueError("trace document must be a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace document missing 'traceEvents' list")
    named_pids: set[int] = set()
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: event must be an object")
        ph = event.get("ph")
        if ph not in ("X", "M"):
            raise ValueError(f"{where}: unsupported phase {ph!r}")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"{where}: missing event name")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                raise ValueError(f"{where}: {field} must be an integer")
        if ph == "M":
            if event["name"] not in ("process_name", "thread_name"):
                raise ValueError(
                    f"{where}: unknown metadata event {event['name']!r}")
            args = event.get("args")
            if not isinstance(args, dict) or "name" not in args:
                raise ValueError(f"{where}: metadata event missing args.name")
            if event["name"] == "process_name":
                named_pids.add(event["pid"])
            continue
        for field in ("ts", "dur"):
            value = event.get(field)
            if not isinstance(value, (int, float)):
                raise ValueError(f"{where}: {field} must be a number")
        if event["dur"] < 0:
            raise ValueError(f"{where}: negative duration")
        if event["pid"] not in named_pids:
            raise ValueError(
                f"{where}: pid {event['pid']} has no process_name metadata")
