"""Metrics: TET/ART computation and report formatting."""

from .jobstats import (
    JobPhaseStats,
    format_phase_table,
    job_phase_stats,
    mean_sharing_fraction,
)
from .measures import ScheduleMetrics, compute_metrics
from .report import format_io_table, format_series, format_table, normalize_all
from .utilization import (
    busy_slots_series,
    render_gantt,
    render_utilization_strip,
    slot_utilization,
    task_spans,
)

__all__ = ["JobPhaseStats", "format_phase_table", "job_phase_stats",
           "mean_sharing_fraction",
           "ScheduleMetrics", "compute_metrics",
           "format_io_table", "format_series", "format_table", "normalize_all",
           "busy_slots_series", "render_gantt",
           "render_utilization_strip", "slot_utilization", "task_spans"]
