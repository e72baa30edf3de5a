"""Unit tests for the span tracer: nesting, export, and the no-op contract."""

import json
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    NULL_OBS,
    NULL_TRACER,
    SUMMARY_SCHEMA_VERSION,
    ObsContext,
    SpanRecord,
    Tracer,
    get_obs,
    observe,
    timed,
    to_chrome_trace,
    traced,
    use_obs,
    validate_chrome_trace,
    worker_tracer,
    write_chrome_trace,
)
from repro.obs.tracer import NULL_SPAN


class FakeClock:
    """Deterministic clock: advances by a fixed step per read."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestSpans:
    def test_span_records_interval_and_attrs(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("work", batch=3):
            pass
        (record,) = tracer.records
        assert record.name == "work"
        assert record.end > record.start
        assert record.attrs == {"batch": 3}
        assert record.proc == "main"
        assert record.track == "main"

    def test_set_attaches_mid_span_attrs(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("work", a=1) as span:
            span.set(b=2)
        (record,) = tracer.records
        assert record.attrs == {"a": 1, "b": 2}

    def test_record_direct(self):
        tracer = Tracer(clock=FakeClock())
        tracer.record("manual", 2.0, 5.0, track="stream_0",
                      attrs={"bytes": 10})
        (record,) = tracer.records
        assert record.duration == 3.0
        assert record.track == "stream_0"

    def test_summary_aggregates_by_name(self):
        tracer = Tracer(clock=FakeClock())
        for _ in range(3):
            with tracer.span("inner"):
                pass
        summary = tracer.summary()
        assert summary["schema_version"] == SUMMARY_SCHEMA_VERSION
        assert summary["n_spans"] == 3
        assert summary["spans"]["inner"]["count"] == 3
        # v2 adds busy_s while keeping every v1 key.
        assert summary["busy_s"] > 0.0
        assert {"wall_s", "n_spans", "spans"} <= summary.keys()

    @given(depths=st.lists(st.integers(1, 6), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_nesting_order_and_containment(self, depths):
        """Nested spans close inner-first, and every child interval lies
        inside its parent's — for any nesting profile."""
        tracer = Tracer(clock=FakeClock())

        def nest(depth: int) -> None:
            with tracer.span(f"level{depth}"):
                if depth > 1:
                    nest(depth - 1)

        for depth in depths:
            nest(depth)

        records = tracer.records
        assert len(records) == sum(depths)
        # Records append at span close: within one nest() call they appear
        # deepest-first, with strictly containing intervals.
        cursor = 0
        for depth in depths:
            chunk = records[cursor:cursor + depth]
            cursor += depth
            for child, parent in zip(chunk, chunk[1:]):
                assert parent.start < child.start
                assert child.end < parent.end
            names = [r.name for r in chunk]
            assert names == [f"level{i}" for i in range(1, depth + 1)]

    def test_spans_from_threads_keep_track_names(self):
        import threading

        tracer = Tracer(clock=FakeClock())

        def work():
            with tracer.span("threaded"):
                pass

        t = threading.Thread(target=work, name="stream_7")
        t.start()
        t.join()
        (record,) = tracer.records
        assert record.track == "stream_7"


class TestNullTracer:
    def test_span_returns_shared_singleton(self):
        """Disabled-mode spans allocate nothing: every call returns the
        same object (the ScratchPool-style zero-allocation contract)."""
        first = NULL_TRACER.span("a", x=1)
        second = NULL_TRACER.span("b")
        assert first is second is NULL_SPAN
        assert NULL_TRACER.drain() is NULL_TRACER.drain()

    def test_noop_records_nothing(self):
        with NULL_TRACER.span("work"):
            pass
        NULL_TRACER.record("manual", 0.0, 1.0)
        assert NULL_TRACER.records == []
        assert NULL_TRACER.summary()["n_spans"] == 0
        assert not NULL_TRACER.enabled

    def test_null_tracer_still_has_a_clock(self):
        assert NULL_TRACER.clock() >= 0.0


class TestTimed:
    def test_measures_even_when_disabled(self):
        with timed(NULL_TRACER, "stage") as stage:
            pass
        assert stage.elapsed >= 0.0
        assert NULL_TRACER.records == []

    def test_records_span_when_enabled(self):
        tracer = Tracer(clock=FakeClock())
        with timed(tracer, "stage", n=4) as stage:
            stage.set(m=5)
        assert stage.elapsed == 1.0
        (record,) = tracer.records
        assert record.name == "stage"
        assert record.attrs == {"n": 4, "m": 5}


class TestWorkerTracer:
    def test_disabled_returns_null(self):
        assert worker_tracer(False) is NULL_TRACER

    def test_enabled_labels_proc_by_pid(self):
        import os

        tracer = worker_tracer(True, "sw-worker")
        assert tracer.proc == f"sw-worker-{os.getpid()}"

    def test_records_pickle_round_trip(self):
        record = SpanRecord("shard", 1.0, 2.5, "sw-worker-7", "main",
                            {"shard": 3})
        clone = pickle.loads(pickle.dumps(record))
        assert clone.name == "shard"
        assert clone.duration == 1.5
        assert clone.attrs == {"shard": 3}

    def test_absorb_merges_worker_records(self):
        parent = Tracer(clock=FakeClock())
        worker = Tracer(clock=FakeClock(), proc="sw-worker-1")
        with worker.span("remote"):
            pass
        parent.absorb(worker.drain())
        assert [r.proc for r in parent.records] == ["sw-worker-1"]
        assert worker.records == []


class TestTracedDecorator:
    def test_uses_ambient_tracer(self):
        @traced("decorated")
        def fn(x):
            return x + 1

        assert fn(1) == 2           # ambient is NULL_OBS: no-op
        ctx = observe()
        with use_obs(ctx):
            assert fn(2) == 3
        assert [r.name for r in ctx.tracer.records] == ["decorated"]

    def test_ambient_context_restored(self):
        ctx = observe()
        with use_obs(ctx):
            assert get_obs() is ctx
        assert get_obs() is NULL_OBS

    def test_obs_context_enabled_flag(self):
        assert not NULL_OBS.enabled
        assert observe().enabled
        assert ObsContext(tracer=Tracer()).enabled


class TestChromeTrace:
    def _tracer_with_spans(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer", batch=0):
            with tracer.span("inner"):
                pass
        tracer.record("shard", 0.5, 1.5, proc="sw-worker-9")
        return tracer

    def test_export_validates(self):
        tracer = self._tracer_with_spans()
        doc = to_chrome_trace(tracer.records, tracer.t0)
        validate_chrome_trace(doc)

    def test_processes_and_threads_are_named(self):
        tracer = self._tracer_with_spans()
        doc = to_chrome_trace(tracer.records, tracer.t0)
        events = doc["traceEvents"]
        procs = {e["args"]["name"]: e["pid"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert procs["main"] == 1
        assert "sw-worker-9" in procs
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"outer", "inner", "shard"}
        for e in complete:
            assert e["ts"] >= 0 and e["dur"] >= 0

    def test_attrs_become_args(self):
        tracer = self._tracer_with_spans()
        doc = to_chrome_trace(tracer.records, tracer.t0)
        outer = next(e for e in doc["traceEvents"]
                     if e.get("name") == "outer" and e["ph"] == "X")
        assert outer["args"] == {"batch": 0}

    def test_empty_trace_still_valid(self):
        doc = to_chrome_trace([], 0.0)
        validate_chrome_trace(doc)

    def test_write_and_load_round_trip(self, tmp_path):
        from repro.obs import load_trace

        tracer = self._tracer_with_spans()
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracer.records, tracer.t0,
                           metadata={"command": "test"})
        doc = load_trace(path)
        assert doc["otherData"]["command"] == "test"
        assert doc["otherData"]["schema_version"] == 1

    def test_validate_rejects_malformed(self, tmp_path):
        import pytest

        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "Q", "name": "x",
                                                    "pid": 1, "tid": 1}]})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "name": "x", "pid": 9, "tid": 1,
                 "ts": 0, "dur": 1}]})  # pid never named
        with pytest.raises(ValueError):
            validate_chrome_trace({"no_events": []})

    def test_numpy_attrs_serialize(self):
        import numpy as np

        tracer = Tracer(clock=FakeClock())
        with tracer.span("np", count=np.int64(7), frac=np.float64(0.5)):
            pass
        doc = to_chrome_trace(tracer.records, tracer.t0)
        json.dumps(doc)  # must be JSON-native after _jsonable coercion


class TestSummaryReport:
    def test_summarize_and_render(self):
        from repro.obs import render_summary, summarize_trace

        tracer = Tracer(clock=FakeClock())
        for _ in range(2):
            with tracer.span("busy"):
                pass
        doc = to_chrome_trace(tracer.records, tracer.t0)
        agg = summarize_trace(doc)
        assert agg["n_spans"] == 2
        assert agg["rows"][0]["name"] == "busy"
        text = render_summary(doc)
        assert "busy" in text and "wall" in text

    def test_per_process_table_sums_busy_per_process(self):
        from repro.obs import render_summary, summarize_trace

        records = [
            SpanRecord("kernel", 0.0, 2.0, "main", "stream_0"),
            SpanRecord("homology.align.shard", 0.5, 1.0, "sw-worker-1",
                       "main"),
            SpanRecord("homology.align.shard", 1.0, 2.0, "sw-worker-1",
                       "main"),
        ]
        doc = to_chrome_trace(records, 0.0)
        procs = {p["proc"]: p for p in summarize_trace(doc)["procs"]}
        assert procs["main"]["busy_s"] == 2.0
        assert procs["sw-worker-1"]["busy_s"] == 1.5
        assert procs["sw-worker-1"]["count"] == 2
        text = render_summary(doc)
        assert "per-process utilization" in text
        assert "sw-worker-1" in text
