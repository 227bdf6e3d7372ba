"""Unified observability: spans, metrics and trace export.

One tracing API for both halves of the repo — the discrete-event
simulator records in sim-time, the local runtime in wall-time (through
:mod:`repro.common.clock`), and both land in the same Chrome trace file
a browser or https://ui.perfetto.dev can open::

    from repro.obs import TraceSession

    with TraceSession("wordcount") as session:
        runner = SharedScanRunner(store, ExecutionConfig())
        runner.run(jobs)
    session.export("wordcount.trace.json")

Pieces:

* :class:`Tracer` — thread-safe nestable spans + point events, no-op
  fast path when disabled (:data:`NULL_TRACER`);
* :class:`MetricsRegistry` — counters / gauges / fixed-bucket
  histograms; absorbs per-wave ``ReadStats`` deltas;
* :mod:`~repro.obs.export` — Chrome trace-event JSON (the one
  on-disk encoding) and a text summary; ``python -m repro.obs``
  summarises and analyzes;
* :class:`TraceSession` — the ambient recording context simulators and
  runners adopt their tracers into;
* :class:`~repro.common.config.TraceConfig` — the ``ExecutionConfig``
  knob that turns recording on per run (re-exported here);
* :mod:`~repro.obs.analyze` — trace analytics: critical path,
  utilization timelines, scan-sharing attribution
  (``python -m repro.obs analyze``);
* :mod:`~repro.obs.regress` — the benchmark perf-regression gate
  (``python -m repro.obs regress``);
* :mod:`~repro.obs.live` — the live telemetry plane: sliding-window
  rates and exact windowed quantiles, per-tenant SLO tracking,
  Prometheus text exposition and the ``python -m repro.obs top``
  dashboard over a running scheduler service.
"""

from ..common.config import TraceConfig
from .analyze import analyze_events, analyze_file, format_report
from .export import (
    chrome_document,
    chrome_events,
    export_chrome,
    format_summary,
    load_events,
    summarize,
)
from .live import (
    RollingCounter,
    ServiceTelemetry,
    SlidingQuantiles,
    SLOConfig,
    SLOTracker,
    WindowStats,
    exact_percentile,
    parse_exposition,
    render_families,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .regress import (
    MetricSpec,
    RegressionReport,
    compare,
    format_regression,
)
from .runtime import TraceSession, active_session, resolve_tracer
from .tracer import (
    NULL_TRACER,
    PHASE_INSTANT,
    PHASE_SPAN,
    TraceEvent,
    Tracer,
)

__all__ = [
    "NULL_TRACER",
    "PHASE_INSTANT",
    "PHASE_SPAN",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricSpec",
    "MetricsRegistry",
    "RegressionReport",
    "RollingCounter",
    "SLOConfig",
    "SLOTracker",
    "ServiceTelemetry",
    "SlidingQuantiles",
    "TraceConfig",
    "TraceEvent",
    "TraceSession",
    "Tracer",
    "WindowStats",
    "active_session",
    "analyze_events",
    "analyze_file",
    "chrome_document",
    "chrome_events",
    "compare",
    "exact_percentile",
    "export_chrome",
    "format_regression",
    "format_report",
    "format_summary",
    "load_events",
    "parse_exposition",
    "render_families",
    "resolve_tracer",
    "summarize",
]
