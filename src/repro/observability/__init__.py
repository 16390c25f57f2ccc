"""Structured observability for the execution stack.

Three surfaces, one package (see ``docs/observability.md``):

``repro.observability.metrics``
    a process-local metrics registry — counters, gauges and histograms
    with labels, snapshot/merge semantics that combine per-partition
    measurements as deterministically as ``ExecutionStats`` does;
``repro.observability.spans``
    span-based tracing — operator trees, partition and scheduler
    lifecycles, Verify/Refine batches and refinement-session iterations
    become :class:`Span` records exportable as plain JSON or as Chrome
    trace-event files (``chrome://tracing`` / Perfetto);
``repro.observability.telemetry``
    JSONL session telemetry — :class:`~repro.assistant.session.RefinementSession`
    emits one machine-readable record per iteration, so Table-4-style
    per-iteration reports come from data, not bespoke harness code;
``repro.observability.logs``
    the shared ``repro.*`` logger hierarchy and its one-call console
    configuration (the CLI's ``--log-level``).
"""

from repro.observability.logs import LOG_LEVELS, configure_logging, get_logger
from repro.observability.metrics import (
    MetricsRegistry,
    record_execution,
    record_stats,
)
from repro.observability.spans import (
    Span,
    Tracer,
    spans_from_chrome,
    spans_from_json,
    spans_to_chrome,
    spans_to_json,
    write_chrome_trace,
)
from repro.observability.telemetry import (
    TelemetrySink,
    read_telemetry,
    render_iteration_report,
)

__all__ = [
    "LOG_LEVELS",
    "MetricsRegistry",
    "Span",
    "TelemetrySink",
    "Tracer",
    "configure_logging",
    "get_logger",
    "read_telemetry",
    "record_execution",
    "record_stats",
    "render_iteration_report",
    "spans_from_chrome",
    "spans_from_json",
    "spans_to_chrome",
    "spans_to_json",
    "write_chrome_trace",
]
