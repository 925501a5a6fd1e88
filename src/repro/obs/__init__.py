"""repro.obs — unified tracing, metrics, SLOs and profiling.

One instrumentation layer over the whole stack (simulator launches, kernel
phases, engine batches and plan-cache traffic, harness calibrations, the
serving layer):

* :mod:`.trace` — low-overhead structured spans/events with
  ``ExecutionConfig``-style resolution (call-site ``trace=`` keyword >
  :func:`tracing` context > ``REPRO_TRACE`` env).  Disabled tracing is a
  guarded no-op and is bit-identical in counters, timings, outputs and
  sanitizer reports.  Span/trace ids are process-unique, and the
  open-span stack is per-thread so one tracer serves concurrent clients.
* :mod:`.context` — :class:`~repro.obs.context.TraceContext` carries span
  lineage across the serve thread boundary, and
  :class:`~repro.obs.context.RequestTimeline` decomposes each response's
  wall latency into stages that sum exactly, annotated with what was
  booked while it executed.
* :mod:`.metrics` — an in-process :class:`~repro.obs.metrics.MetricsRegistry`
  (counters/gauges/histograms) aggregating across ``sat()``/``sat_batch()``
  calls; histograms keep log-spaced buckets for live p50/p95/p99.
  :func:`~repro.obs.metrics.count` / ``observe`` book into the registry,
  the request timeline and the innermost open span in one call.
* :mod:`.quantiles` — the shared percentile/bucket math behind the
  histograms, the load generator and the Prometheus exposition.
* :mod:`.slo` — configurable objectives (latency, error rate, coalesce
  ratio) evaluated as multi-window burn rates.
* :mod:`.exporters` — Chrome/Perfetto ``trace.json`` on the *modeled*
  timeline (plus per-thread host tracks and coalesce flow arrows), a
  JSONL event log, the per-pass Fig.-8 breakdown rows, and Prometheus
  text exposition of the metrics registry.
* :mod:`.regress` — compares fresh profiles against the checked-in
  ``BENCH_*.json`` histories (``python -m repro.obs.regress``).

See ``docs/observability.md``.
"""

from .context import (
    RequestTimeline,
    TraceContext,
    recording_timeline,
)
from .exporters import (
    pass_breakdown,
    span_to_dict,
    to_chrome_trace,
    to_jsonl,
    to_prometheus,
    validate_chrome_trace,
    validate_prometheus_text,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import MetricsRegistry, count, get_metrics, observe, reset_metrics
from .quantiles import percentiles
from .slo import SloObjective, SloTracker, default_objectives
from .trace import (
    TRACE_ENV,
    Span,
    Tracer,
    current_tracer,
    env_tracer,
    next_trace_id,
    resolve_tracer,
    tracing,
)

__all__ = [
    "TRACE_ENV",
    "Span",
    "Tracer",
    "current_tracer",
    "env_tracer",
    "next_trace_id",
    "resolve_tracer",
    "tracing",
    "TraceContext",
    "RequestTimeline",
    "recording_timeline",
    "MetricsRegistry",
    "count",
    "observe",
    "get_metrics",
    "reset_metrics",
    "percentiles",
    "SloObjective",
    "SloTracker",
    "default_objectives",
    "pass_breakdown",
    "span_to_dict",
    "to_chrome_trace",
    "to_jsonl",
    "to_prometheus",
    "validate_chrome_trace",
    "validate_prometheus_text",
    "write_chrome_trace",
    "write_jsonl",
]
