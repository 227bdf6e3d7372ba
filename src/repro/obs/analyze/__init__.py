"""Trace analytics: answer questions with recorded traces.

PR 4's observability layer records *what happened* (spans, instants,
metrics); this package turns a recorded trace back into *answers*:

* :mod:`~repro.obs.analyze.spans` — rebuild the span forest from the
  flat event stream (a Chrome JSON trace, via
  :func:`repro.obs.export.load_events`);
* :mod:`~repro.obs.analyze.critical` — per-run critical path with
  self-time vs child-time, plus a per-name time breakdown ("where did
  TET go");
* :mod:`~repro.obs.analyze.timeline` — slot-utilization and
  wave-occupancy time series from map-task spans, with a straggler
  detector (the local analogue of the paper's periodical slot
  checking);
* :mod:`~repro.obs.analyze.attribution` — scan-sharing attribution:
  join per-wave ``io.wave`` ReadStats deltas with each map task's
  participating ``job_ids`` to split physical reads across jobs and
  quantify the sharing claim per job;
* :mod:`~repro.obs.analyze.report` — one entry point
  (:func:`analyze_events` / :func:`analyze_file`) producing a
  deterministic JSON document or an aligned text report, surfaced as
  ``python -m repro.obs analyze TRACE``.
"""

from .attribution import JobAttribution, SharingReport, attribute_sharing
from .critical import CriticalStep, critical_path, name_breakdown
from .report import analyze_events, analyze_file, format_report
from .spans import SpanNode, build_forest, instants_in
from .timeline import (
    Straggler,
    UtilizationSeries,
    WaveOccupancy,
    detect_stragglers,
    utilization_series,
    wave_occupancy,
)

__all__ = [
    "CriticalStep",
    "JobAttribution",
    "SharingReport",
    "SpanNode",
    "Straggler",
    "UtilizationSeries",
    "WaveOccupancy",
    "analyze_events",
    "analyze_file",
    "attribute_sharing",
    "build_forest",
    "critical_path",
    "detect_stragglers",
    "format_report",
    "instants_in",
    "name_breakdown",
    "utilization_series",
    "wave_occupancy",
]
