"""``repro.obs`` — unified tracing + metrics for the whole pipeline.

The observability subsystem the runtime analysis is built on (the paper's
Table I component split and Figure 4 kernel decomposition, generalized):

* :class:`Tracer` / :func:`traced` — nested timed spans with attributes,
  exported as run-summary JSON (:meth:`Tracer.summary`) and Chrome Trace
  Event JSON (:mod:`repro.obs.chrome_trace`, Perfetto-loadable, with
  process-pool workers and kernel streams as separate tracks);
* :class:`MetricsRegistry` — counters/gauges/histograms (kernel launches,
  transfer bytes, scratch hits/misses, pairs kept/dropped, dedup ratios,
  peak RSS) with a single :meth:`~MetricsRegistry.snapshot`;
* :func:`observe` / :func:`use_obs` / :func:`get_obs` — the ambient
  context instrumented layers consult; :data:`NULL_OBS` (the default)
  makes every instrumentation site a near-free no-op.

See ``docs/OBSERVABILITY.md`` for the API walkthrough and how to read a
Perfetto trace of a Table-I run.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Counter": ".metrics",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "MetricsRegistry": ".metrics",
    "NULL_METRICS": ".metrics",
    "NULL_OBS": ".context",
    "NULL_TRACER": ".tracer",
    "NullMetrics": ".metrics",
    "NullTracer": ".tracer",
    "ObsContext": ".context",
    "SUMMARY_SCHEMA_VERSION": ".tracer",
    "Span": ".tracer",
    "SpanRecord": ".tracer",
    "Tracer": ".tracer",
    "append_ledger": ".ledger",
    "attribute": ".analysis",
    "compare_rows": ".ledger",
    "config_fingerprint": ".ledger",
    "critical_path": ".analysis",
    "detect_drift": ".ledger",
    "diff_traces": ".analysis",
    "get_obs": ".context",
    "ledger_report": ".ledger",
    "load_ledger": ".ledger",
    "load_trace": ".chrome_trace",
    "observe": ".context",
    "parse_metric_spec": ".ledger",
    "peak_rss_bytes": ".metrics",
    "render_attribution": ".analysis",
    "render_critical_path": ".analysis",
    "render_deltas": ".ledger",
    "render_diff": ".analysis",
    "render_ledger_report": ".ledger",
    "render_summary": ".summary",
    "rows_from": ".ledger",
    "set_obs": ".context",
    "skipped_wall_note": ".ledger",
    "summarize_trace": ".summary",
    "timed": ".tracer",
    "to_chrome_trace": ".chrome_trace",
    "trace_spans": ".analysis",
    "traced": ".tracer",
    "track_busy_seconds": ".analysis",
    "use_obs": ".context",
    "validate_chrome_trace": ".chrome_trace",
    "worker_tracer": ".tracer",
    "write_chrome_trace": ".chrome_trace",
})
