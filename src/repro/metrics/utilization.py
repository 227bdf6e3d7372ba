"""Cluster-utilisation analytics derived from a simulation's task spans.

The paper's Section II argument is fundamentally about utilisation: FIFO
fully utilises the cluster but serialises jobs; capacity/fair schedulers
run jobs concurrently but under-provision each; S3 keeps utilisation high
*and* shares scans.  The driver closes every attempt — finished, failed
or killed — with one ``task.<kind>`` span on its node's lane, so those
spans *are* the slot-occupancy intervals; these helpers turn them into
occupancy statistics and an ASCII Gantt strip so that claim can be
inspected directly.
"""

from __future__ import annotations

from ..common.errors import ExperimentError
from ..obs.analyze.timeline import mean_busy, render_ramp
from ..obs.tracer import TraceEvent, Tracer


def task_spans(tracer: Tracer, kind: str = "map") -> list[TraceEvent]:
    """The occupancy spans of ``kind`` slots, one per attempt.

    Failed and speculatively-killed attempts count as occupancy too — they
    held a slot until their end event.
    """
    if kind not in ("map", "reduce"):
        raise ExperimentError(f"kind must be 'map' or 'reduce', got {kind!r}")
    return tracer.spans(name=f"task.{kind}")


def slot_utilization(tracer: Tracer, total_slots: int, *,
                     kind: str = "map",
                     start: float | None = None,
                     end: float | None = None) -> float:
    """Mean fraction of ``kind`` slots busy over the window.

    Defaults to the window from the first to the last task edge.
    """
    if total_slots <= 0:
        raise ExperimentError("total_slots must be positive")
    spans = task_spans(tracer, kind)
    if not spans:
        return 0.0
    window_start = min(s.ts for s in spans) if start is None else start
    window_end = max(s.end for s in spans) if end is None else end
    if window_end <= window_start:
        raise ExperimentError("empty utilisation window")
    busy = sum(max(0.0, min(s.end, window_end) - max(s.ts, window_start))
               for s in spans)
    return busy / (total_slots * (window_end - window_start))


def busy_slots_series(tracer: Tracer, *, kind: str = "map",
                      bins: int = 60) -> tuple[list[float], list[float]]:
    """Occupancy sampled over ``bins`` equal time buckets.

    Returns ``(bucket_start_times, mean_busy_slots_per_bucket)``.
    """
    if bins <= 0:
        raise ExperimentError("bins must be positive")
    spans = task_spans(tracer, kind)
    if not spans:
        return [], []
    t0 = min(s.ts for s in spans)
    t1 = max(s.end for s in spans)
    width = (t1 - t0) / bins or 1.0
    series = mean_busy(((s.ts, s.end) for s in spans), t0, width, bins)
    return [t0 + b * width for b in range(bins)], series


def render_utilization_strip(tracer: Tracer, total_slots: int, *,
                             kind: str = "map", width: int = 60) -> str:
    """One-line ASCII occupancy strip, one ramp character per bucket by
    load decile (:func:`~repro.obs.analyze.timeline.render_ramp`)."""
    _, series = busy_slots_series(tracer, kind=kind, bins=width)
    if not series:
        return "(no tasks)"
    return render_ramp(busy / total_slots for busy in series)


def render_gantt(tracer: Tracer, *, kind: str = "map", width: int = 72,
                 max_nodes: int = 16) -> str:
    """Per-node ASCII Gantt chart of task occupancy.

    Each row is one node; ``#`` marks busy buckets, ``.`` idle.  Nodes
    beyond ``max_nodes`` are summarised.
    """
    spans = task_spans(tracer, kind)
    if not spans:
        return "(no tasks)"
    t0 = min(s.ts for s in spans)
    t1 = max(s.end for s in spans)
    extent = (t1 - t0) or 1.0
    by_node: dict[str, list[TraceEvent]] = {}
    for span in spans:
        by_node.setdefault(span.lane, []).append(span)
    lines = [f"{kind} tasks  [{t0:.1f}s .. {t1:.1f}s]"]
    for index, node in enumerate(sorted(by_node)):
        if index >= max_nodes:
            lines.append(f"... and {len(by_node) - max_nodes} more nodes")
            break
        row = [" "] * width
        for span in by_node[node]:
            first = int((span.ts - t0) / extent * (width - 1))
            last = int((span.end - t0) / extent * (width - 1))
            for pos in range(first, last + 1):
                row[pos] = "#"
        lines.append(f"{node:<10} |{''.join(row)}|")
    return "\n".join(lines)
