"""Nested span tracing for the gpClust pipeline.

A :class:`Tracer` records *spans* — named, timed intervals with optional
attributes — from any layer of the pipeline: device kernel rounds, transfer
operations, homology stages, process-pool shard workers, Phase III.  Spans
carry a ``proc``/``track`` coordinate (process label, thread label) so that
concurrent work — trial-chunk stream workers, Smith-Waterman worker
processes — renders as separate tracks in the Chrome
Trace export (:mod:`repro.obs.chrome_trace`).

Two usage styles::

    with tracer.span("pass1", c=100):          # context manager
        ...

    @traced("homology.seed_filter")            # decorator (ambient tracer)
    def candidate_pairs(...): ...

Disabled mode is a first-class citizen: :data:`NULL_TRACER` answers every
call with shared singletons and allocates nothing, so instrumented hot paths
cost one attribute check (``tracer.enabled``) plus at most a no-op method
call.  Production call sites that would build attribute dicts guard on
``tracer.enabled`` — the single branch the overhead budget allows.

Clocks are monotonic: the default source is
:func:`repro.util.timer.clock` (``time.perf_counter``, i.e.
``CLOCK_MONOTONIC`` on Linux — system-wide, so worker-process timestamps
merge directly onto the parent's timeline).  Tests inject a deterministic
fake through the same point.
"""

from __future__ import annotations

import functools
import os
import threading
from typing import Callable

from repro.util.timer import clock as _default_clock

#: Schema version of the run-summary payload (:meth:`Tracer.summary`).
#: Version 2 adds ``busy_s`` (summed span seconds, the quantity the
#: analysis layer reconciles against) while keeping every version-1 key
#: — ``wall_s``, ``n_spans``, ``spans`` — as-is, the same aliasing
#: discipline the unified ``--profile`` document uses.  The single home
#: for the number: ``run_traced_smoke.py`` and the CLI emitters stamp
#: their summary-derived documents from here instead of hardcoding it.
SUMMARY_SCHEMA_VERSION = 2


class SpanRecord:
    """One finished span: a closed interval on a (proc, track) coordinate.

    Plain data with ``__slots__`` — picklable, so worker processes ship
    their records back to the parent with shard results.
    """

    __slots__ = ("name", "start", "end", "proc", "track", "attrs")

    def __init__(self, name: str, start: float, end: float,
                 proc: str, track: str, attrs: dict | None = None) -> None:
        self.name = name
        self.start = float(start)
        self.end = float(end)
        self.proc = proc
        self.track = track
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __getstate__(self):
        return (self.name, self.start, self.end, self.proc, self.track,
                self.attrs)

    def __setstate__(self, state):
        (self.name, self.start, self.end, self.proc, self.track,
         self.attrs) = state

    def __repr__(self) -> str:
        return (f"SpanRecord({self.name!r}, {self.duration * 1e3:.3f} ms, "
                f"proc={self.proc!r}, track={self.track!r})")


class Span:
    """An open span; closes (and records itself) on ``__exit__``."""

    __slots__ = ("_tracer", "name", "attrs", "start", "end")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: dict | None) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0

    def set(self, **attrs) -> "Span":
        """Attach attributes discovered mid-span (counts, byte totals...)."""
        if self.attrs is None:
            self.attrs = attrs
        else:
            self.attrs.update(attrs)
        return self

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        self.start = self._tracer.clock()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        self.end = tracer.clock()
        tracer._append(SpanRecord(self.name, self.start, self.end,
                                  tracer.proc, _track_name(), self.attrs))


class _NullSpan:
    """The shared do-nothing span of :class:`NullTracer`."""

    __slots__ = ()
    name = None
    start = 0.0
    end = 0.0
    duration = 0.0

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_SPAN = _NullSpan()


def _track_name() -> str:
    name = threading.current_thread().name
    return "main" if name == "MainThread" else name


class Tracer:
    """Collects :class:`SpanRecord` objects; thread-safe.

    Parameters
    ----------
    clock:
        Monotonic time source; defaults to the injectable repository clock
        (:func:`repro.util.timer.clock`).
    proc:
        Process label stamped on every record — ``"main"`` in the driver,
        ``"sw-worker-<pid>"`` in alignment pool workers.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None,
                 proc: str | None = None) -> None:
        self.clock = clock or _default_clock
        self.proc = proc if proc is not None else "main"
        self.t0 = self.clock()
        self._records: list[SpanRecord] = []
        self._lock = threading.Lock()

    # -------------------------------------------------------------- #
    # Recording
    # -------------------------------------------------------------- #

    def span(self, name: str, **attrs) -> Span:
        """A context-manager span; ``attrs`` become Chrome-trace args."""
        return Span(self, name, attrs or None)

    def record(self, name: str, start: float, end: float, *,
               track: str | None = None, proc: str | None = None,
               attrs: dict | None = None) -> None:
        """Record an already-measured interval (hot paths time themselves)."""
        self._append(SpanRecord(name, start, end,
                                proc if proc is not None else self.proc,
                                track if track is not None else _track_name(),
                                attrs))

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)

    def absorb(self, records: list[SpanRecord]) -> None:
        """Merge records drained from another tracer (e.g. a pool worker).

        Worker clocks are the same system-wide monotonic clock, so the
        records land directly on this tracer's timeline.
        """
        with self._lock:
            self._records.extend(records)

    def drain(self) -> list[SpanRecord]:
        """Remove and return all records (used by workers to ship them)."""
        with self._lock:
            records, self._records = self._records, []
        return records

    # -------------------------------------------------------------- #
    # Views
    # -------------------------------------------------------------- #

    @property
    def records(self) -> list[SpanRecord]:
        with self._lock:
            return list(self._records)

    def wall_s(self) -> float:
        """Seconds from the earliest span start to the latest span end."""
        records = self.records
        if not records:
            return 0.0
        return (max(r.end for r in records)
                - min(r.start for r in records))

    def summary(self) -> dict:
        """Aggregate spans by name: the run-summary JSON payload."""
        by_name: dict[str, dict] = {}
        for r in self.records:
            entry = by_name.get(r.name)
            d = r.duration
            if entry is None:
                by_name[r.name] = {"count": 1, "total_s": d,
                                   "min_s": d, "max_s": d}
            else:
                entry["count"] += 1
                entry["total_s"] += d
                entry["min_s"] = min(entry["min_s"], d)
                entry["max_s"] = max(entry["max_s"], d)
        busy_s = sum(e["total_s"] for e in by_name.values())
        for entry in by_name.values():
            for key in ("total_s", "min_s", "max_s"):
                entry[key] = round(entry[key], 6)
        return {
            "schema_version": SUMMARY_SCHEMA_VERSION,
            "wall_s": round(self.wall_s(), 6),
            "busy_s": round(busy_s, 6),
            "n_spans": sum(e["count"] for e in by_name.values()),
            "spans": {name: by_name[name] for name in sorted(by_name)},
        }


class NullTracer:
    """The disabled tracer: every operation is a no-op on shared singletons.

    ``span()`` returns the same :data:`NULL_SPAN` object every call, so
    disabled-mode instrumentation performs **zero allocations** — the
    observable contract mirroring :class:`repro.device.memory.ScratchPool`'s
    counter guarantee, asserted by the test suite.
    """

    enabled = False
    proc = "main"
    t0 = 0.0

    # NullTracer still exposes a clock so helpers like ``timed`` can
    # measure durations for their callers even when nothing is recorded.
    @property
    def clock(self) -> Callable[[], float]:
        return _default_clock

    def span(self, name: str, **attrs) -> _NullSpan:
        return NULL_SPAN

    def record(self, name: str, start: float, end: float, *,
               track: str | None = None, proc: str | None = None,
               attrs: dict | None = None) -> None:
        pass

    def absorb(self, records) -> None:
        pass

    def drain(self) -> list:
        return _EMPTY_RECORDS

    @property
    def records(self) -> list:
        return _EMPTY_RECORDS

    def wall_s(self) -> float:
        return 0.0

    def summary(self) -> dict:
        return {"schema_version": SUMMARY_SCHEMA_VERSION, "wall_s": 0.0,
                "busy_s": 0.0, "n_spans": 0, "spans": {}}


_EMPTY_RECORDS: list = []
NULL_TRACER = NullTracer()


class timed:
    """Always-measured stage timer that also records a span when tracing.

    The obs-backed replacement for ad-hoc ``t0 = perf_counter(); ...``
    stage timing: the elapsed seconds are available on ``.elapsed`` whether
    or not the tracer is enabled, and an enabled tracer additionally gets
    the span.  Used by the homology stage breakdown so
    ``HomologyTimings`` keeps its exact public shape on top of obs.
    """

    __slots__ = ("_tracer", "name", "attrs", "start", "elapsed")

    def __init__(self, tracer, name: str, **attrs) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs or None
        self.start = 0.0
        self.elapsed = 0.0

    def set(self, **attrs) -> "timed":
        if self.attrs is None:
            self.attrs = attrs
        else:
            self.attrs.update(attrs)
        return self

    def __enter__(self) -> "timed":
        self.start = self._tracer.clock()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        end = tracer.clock()
        self.elapsed = end - self.start
        if tracer.enabled:
            tracer.record(self.name, self.start, end, attrs=self.attrs)


def worker_tracer(enabled: bool, kind: str = "worker") -> Tracer | NullTracer:
    """A tracer for a pool worker process, labeled by its pid.

    Returns :data:`NULL_TRACER` when tracing is off so workers pay nothing.
    """
    if not enabled:
        return NULL_TRACER
    return Tracer(proc=f"{kind}-{os.getpid()}")


def traced(name: str | None = None, **attrs):
    """Decorator: run the function inside an ambient-tracer span.

    The tracer is looked up per call from :func:`repro.obs.get_obs`, so
    decorated functions are no-ops until observation is enabled.
    """

    def decorate(fn):
        span_name = name or f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            from repro.obs.context import get_obs

            tracer = get_obs().tracer
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(span_name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
