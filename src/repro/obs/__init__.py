"""Unified observability layer: events, metrics, profiling, gating.

One instrumentation primitive: :func:`span` times a block and hands the
closed :class:`Span` to two sinks, the thread's attached
:class:`RequestTrace` and the process-wide :class:`Recorder`; with
neither listening it is a no-op.

* :mod:`repro.obs.events` — the :class:`Recorder` sink: engine events
  (task intervals, messages, faults, cache hits) and closed spans,
  with a bitwise-neutral no-op fast path;
* :mod:`repro.obs.metrics` — counters / gauges / histograms plus
  per-kernel, per-hierarchy-level, per-link derivations, exported as
  JSON or Prometheus text (``repro metrics``), and a strict exposition
  parser for scrape tests;
* :mod:`repro.obs.tracing` — :func:`span` itself, request-scoped span
  trees with trace-context propagation across the serving stack, a
  bounded flight recorder, and trace export/pretty-printing
  (``repro obs trace``);
* :mod:`repro.obs.logging` — one-line structured JSON logging shared
  by the daemon access log and the bench sweep logger;
* :mod:`repro.obs.profile` — self-profiling of the harness (span
  totals + cProfile, ``repro profile``);
* :mod:`repro.obs.report` — standalone HTML run summary
  (``repro obs report``);
* :mod:`repro.obs.regression` — metadata-stamped ``BENCH_*.json``
  comparison that fails CI on wall-time regressions
  (``repro obs gate``).

See ``docs/observability.md`` for the workflow.
"""

from repro.obs.events import Recorder, active, install, recording, uninstall
from repro.obs.logging import jsonlog
from repro.obs.metrics import (
    MetricsRegistry,
    derive_run_metrics,
    parse_prometheus_text,
    utilization_timeline,
)
from repro.obs.profile import format_profile, profile_run
from repro.obs.regression import (
    compare_reports,
    format_gate,
    gate_files,
    run_metadata,
)
from repro.obs.report import build_html, write_html
from repro.obs.tracing import (
    FlightRecorder,
    RequestTrace,
    Span,
    Tracer,
    attach,
    current_trace,
    span,
)

__all__ = [
    "FlightRecorder",
    "MetricsRegistry",
    "Recorder",
    "RequestTrace",
    "Span",
    "Tracer",
    "active",
    "attach",
    "build_html",
    "compare_reports",
    "current_trace",
    "derive_run_metrics",
    "format_gate",
    "format_profile",
    "gate_files",
    "install",
    "jsonlog",
    "parse_prometheus_text",
    "profile_run",
    "recording",
    "run_metadata",
    "span",
    "uninstall",
    "utilization_timeline",
    "write_html",
]
