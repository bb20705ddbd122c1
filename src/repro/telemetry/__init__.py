"""Observability for campaigns and workers: one sink, spans, counters.

All three are off or silent by default, and every signal has a reader:

* :mod:`repro.telemetry.log` — the JSON-lines sink: each record one
  line, written synchronously to ``REPRO_LOG_FILE`` or, with the CLI's
  ``-v``, to stderr.
* :mod:`repro.telemetry.tracing` — spans with trace/span ids propagated
  as an optional ``trace`` protocol field, recorded through the sink on
  both ends, and reconstructed by ``repro-sim trace show`` and checked
  by :func:`check_span_trees`.
* :mod:`repro.telemetry.metrics` — one process-wide registry of
  counters behind ``telemetry.metrics``, read by ``perfbench``, the
  tests and CI.
"""

from .log import (
    FILE_ENV,
    configure,
    reset,
    sink_path,
)
from .metrics import (
    Counter,
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
    record_span,
    render_trace,
    resolve_trace_id,
    span_tree,
    start_span,
)

__all__ = [
    "FILE_ENV",
    "configure",
    "reset",
    "sink_path",
    "Counter",
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
    "record_span",
    "render_trace",
    "resolve_trace_id",
    "span_tree",
    "start_span",
]
