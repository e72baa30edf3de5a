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

from repro.obs.analysis import (
    attribute,
    critical_path,
    diff_traces,
    render_attribution,
    render_critical_path,
    render_diff,
    trace_spans,
    track_busy_seconds,
)
from repro.obs.chrome_trace import (
    load_trace,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.context import (
    NULL_OBS,
    ObsContext,
    get_obs,
    observe,
    set_obs,
    use_obs,
)
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    peak_rss_bytes,
)
from repro.obs.ledger import (
    append_ledger,
    compare_rows,
    config_fingerprint,
    detect_drift,
    ledger_report,
    load_ledger,
    parse_metric_spec,
    render_deltas,
    render_ledger_report,
    rows_from,
    skipped_wall_note,
)
from repro.obs.summary import render_summary, summarize_trace
from repro.obs.tracer import (
    NULL_TRACER,
    SUMMARY_SCHEMA_VERSION,
    NullTracer,
    Span,
    SpanRecord,
    Tracer,
    timed,
    traced,
    worker_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_OBS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "ObsContext",
    "SUMMARY_SCHEMA_VERSION",
    "Span",
    "SpanRecord",
    "Tracer",
    "append_ledger",
    "attribute",
    "compare_rows",
    "config_fingerprint",
    "critical_path",
    "detect_drift",
    "diff_traces",
    "get_obs",
    "ledger_report",
    "load_ledger",
    "load_trace",
    "observe",
    "parse_metric_spec",
    "peak_rss_bytes",
    "render_attribution",
    "render_critical_path",
    "render_deltas",
    "render_diff",
    "render_ledger_report",
    "render_summary",
    "rows_from",
    "set_obs",
    "skipped_wall_note",
    "summarize_trace",
    "timed",
    "to_chrome_trace",
    "trace_spans",
    "traced",
    "track_busy_seconds",
    "use_obs",
    "validate_chrome_trace",
    "worker_tracer",
    "write_chrome_trace",
]
