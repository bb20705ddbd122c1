"""Observability for campaigns and workers: logging, tracing, metrics.

Three coordinated layers, all silent-by-default:

* :mod:`repro.telemetry.log` — structured JSON-lines event logging
  (``get_logger(component)``), enabled via ``REPRO_LOG_LEVEL`` /
  ``REPRO_LOG_FILE`` or the CLI's ``-v``.
* :mod:`repro.telemetry.tracing` — spans with trace/span ids propagated
  as an optional ``trace`` protocol field, recorded on both ends, and
  reconstructed by ``repro-sim trace show``.
* :mod:`repro.telemetry.metrics` — one process-wide registry of
  counters/gauges/histograms behind ``telemetry.metrics``, surfaced by
  ``dist pool status --json``.
"""

from .log import (
    EventLogger,
    FILE_ENV,
    LEVEL_ENV,
    LEVELS,
    coerce_level,
    configure,
    enabled,
    flush,
    get_logger,
    reset,
    sink_path,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics,
)
from . import tracing
from .tracing import (
    Span,
    activate,
    check_span_trees,
    current_context,
    current_span,
    load_spans,
    new_trace_id,
    recent_spans,
    record_span,
    render_trace,
    resolve_trace_id,
    span_tree,
    start_span,
)

__all__ = [
    "EventLogger",
    "FILE_ENV",
    "LEVEL_ENV",
    "LEVELS",
    "coerce_level",
    "configure",
    "enabled",
    "flush",
    "get_logger",
    "reset",
    "sink_path",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics",
    "tracing",
    "Span",
    "activate",
    "check_span_trees",
    "current_context",
    "current_span",
    "load_spans",
    "new_trace_id",
    "recent_spans",
    "record_span",
    "render_trace",
    "resolve_trace_id",
    "span_tree",
    "start_span",
]
