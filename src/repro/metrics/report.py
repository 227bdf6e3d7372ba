"""Report formatting: the normalized bar-chart tables of Figure 4 as text.

The paper plots TET and ART normalised so S3 = 1.0; these helpers render
the same comparison as fixed-width tables that the experiment CLI and the
benchmark harness print.
"""

from __future__ import annotations

from typing import Sequence

from ..common.errors import ExperimentError
from ..common.units import fmt_duration
from .measures import ScheduleMetrics


def normalize_all(results: Sequence[ScheduleMetrics],
                  baseline_name: str = "S3") -> list[tuple[ScheduleMetrics, float, float]]:
    """Return ``(metrics, tet_ratio, art_ratio)`` rows normalised to baseline."""
    baseline = next((r for r in results if r.scheduler == baseline_name), None)
    if baseline is None:
        raise ExperimentError(
            f"baseline {baseline_name!r} missing from results "
            f"({[r.scheduler for r in results]})")
    return [(r, r.tet / baseline.tet, r.art / baseline.art) for r in results]


def format_table(title: str, results: Sequence[ScheduleMetrics],
                 baseline_name: str = "S3") -> str:
    """Render one experiment's results as a fixed-width table.

    Columns mirror the paper's figures: absolute TET/ART plus the
    normalised ratios (baseline = 1.00).
    """
    rows = normalize_all(results, baseline_name)
    header = (f"{'scheduler':<10} {'TET':>10} {'ART':>10} "
              f"{'TET/S3':>8} {'ART/S3':>8}")
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for metrics, tet_ratio, art_ratio in rows:
        lines.append(
            f"{metrics.scheduler:<10} {fmt_duration(metrics.tet):>10} "
            f"{fmt_duration(metrics.art):>10} {tet_ratio:>8.2f} {art_ratio:>8.2f}")
    return "\n".join(lines)


def format_series(title: str, x_label: str, xs: Sequence[float],
                  series: dict[str, Sequence[float]],
                  y_format: str = "{:>10.1f}") -> str:
    """Render multi-series data (Figure 3 style) as a fixed-width table."""
    for name, values in series.items():
        if len(values) != len(xs):
            raise ExperimentError(
                f"series {name!r} has {len(values)} points, expected {len(xs)}")
    name_width = max(10, *(len(n) for n in series)) if series else 10
    header = f"{x_label:<{name_width}} " + " ".join(f"{x:>10g}" for x in xs)
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for name, values in series.items():
        rendered = " ".join(y_format.format(v) for v in values)
        lines.append(f"{name:<{name_width}} {rendered}")
    return "\n".join(lines)
