"""One-stop trace analysis: JSON document + text rendering.

:func:`analyze_events` runs every analysis over a normalised event list
(the output of :func:`repro.obs.export.load_events`) and returns one
plain-data document; :func:`analyze_file` loads a trace file first.
Output is deterministic — keys sorted, floats rounded to nanosecond
resolution — so golden tests can pin it byte for byte and CI can diff
reports across runs.

Surfaced as ``python -m repro.obs analyze TRACE [--format text|json]``.
"""

from __future__ import annotations

import pathlib
from typing import Any, Mapping, Sequence

from ..export import load_events
from .attribution import attribute_sharing
from .critical import critical_path, name_breakdown
from .spans import SpanNode, build_forest, instants_in
from .timeline import (
    detect_stragglers,
    render_ramp,
    utilization_series,
    wave_occupancy,
)

#: Decimal places kept in emitted floats (nanosecond-scale resolution).
_DIGITS = 9

#: Most critical-path entries emitted per tracer.  Local-runtime traces
#: have a handful of run-level roots (``s3.run``, ``fifo.run``); a sim
#: trace with no wrapper span has one root per *task*, and a critical
#: path per task is noise.  The longest roots are the interesting ones.
_MAX_RUNS_PER_TRACER = 8


def _rounded(value: Any) -> Any:
    """Recursively round floats so output is deterministic and diffable."""
    if isinstance(value, float):
        return round(value, _DIGITS)
    if isinstance(value, dict):
        return {key: _rounded(value[key]) for key in value}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def _job_table(tracer: str, roots: Sequence[SpanNode],
               ) -> dict[str, dict[str, Any]]:
    """Per-job timing: attributed map share, reduce time, completion."""
    jobs: dict[str, dict[str, Any]] = {}

    def entry(job_id: str) -> dict[str, Any]:
        return jobs.setdefault(job_id, {
            "waves": 0, "map_seconds_share": 0.0,
            "reduce_seconds": 0.0, "completed_at": 0.0})

    for root in roots:
        for span in root.walk():
            if span.name == "map.task":
                ids = span.job_ids()
                for job_id in ids:
                    entry(job_id)["map_seconds_share"] += span.dur / len(ids)
            elif span.name in ("s3.iteration", "s3.segment"):
                for job_id in span.job_ids():
                    entry(job_id)["waves"] += 1
            elif span.name == "fifo.job" and span.subject:
                job = entry(span.subject)
                job["waves"] += 1
                job["completed_at"] = max(job["completed_at"], span.end)
            elif span.name == "reduce.job" and span.subject:
                job = entry(span.subject)
                job["reduce_seconds"] += span.dur
                job["completed_at"] = max(job["completed_at"], span.end)
    return {job_id: jobs[job_id] for job_id in sorted(jobs)}


def _shard_balance(events: Sequence[Mapping[str, Any]],
                   ) -> dict[str, dict[str, dict[str, Any]]]:
    """Per-tracer, per-shard read balance from ``shard.read`` instants.

    Each ``shard.read`` names the shard that served one logical read
    (``fallback`` marks reads a down primary pushed to a replica);
    ``shard.failover`` instants attribute the failovers to the serving
    shard.  Single-store traces carry neither event, so the table is
    empty for them.
    """
    tables: dict[str, dict[str, dict[str, Any]]] = {}

    def row(tracer: str, shard: str) -> dict[str, Any]:
        return tables.setdefault(tracer, {}).setdefault(
            shard, {"reads": 0, "fallback_reads": 0, "failovers": 0})

    for instant in instants_in(events, name="shard.read"):
        args = instant.get("args", {}) or {}
        entry = row(str(instant.get("tracer", "")),
                    str(args.get("shard", "?")))
        entry["reads"] += 1
        if args.get("fallback"):
            entry["fallback_reads"] += 1
    for instant in instants_in(events, name="shard.failover"):
        args = instant.get("args", {}) or {}
        row(str(instant.get("tracer", "")),
            str(args.get("to", "?")))["failovers"] += 1
    for table in tables.values():
        total = sum(entry["reads"] for entry in table.values())
        for entry in table.values():
            entry["fraction"] = entry["reads"] / total if total else 0.0
    return {tracer: {shard: tables[tracer][shard]
                     for shard in sorted(tables[tracer])}
            for tracer in sorted(tables)}


def analyze_events(events: Sequence[Mapping[str, Any]], *,
                   bins: int = 40, straggler_k: float = 2.0,
                   ) -> dict[str, Any]:
    """Full analysis document for a normalised event list."""
    forest = build_forest(events)
    document: dict[str, Any] = {
        "summary": {
            "events": len(events),
            "spans": sum(1 for e in events if e["ph"] == "X"),
            "instants": sum(1 for e in events if e["ph"] == "i"),
            "tracers": sorted(forest),
        },
        "runs": [],
        "runs_omitted": 0,
        "breakdown": {},
        "jobs": {},
        "utilization": {},
        "waves": {},
        "stragglers": [],
        "sharing": [],
        "shards": {},
        "slotcheck": [],
    }
    for tracer in sorted(forest):
        roots = forest[tracer]
        reported = roots
        if len(roots) > _MAX_RUNS_PER_TRACER:
            longest = sorted(roots, key=lambda r: (-r.dur, r.start, r.lane))
            keep = {id(r) for r in longest[:_MAX_RUNS_PER_TRACER]}
            reported = [r for r in roots if id(r) in keep]
            document["runs_omitted"] += len(roots) - len(reported)
        for root in reported:
            path = critical_path(root)
            document["runs"].append({
                "tracer": tracer,
                "name": root.name,
                "subject": root.subject,
                "lane": root.lane,
                "start": root.start,
                "wall": root.dur,
                "critical_path": [step.as_dict() for step in path],
            })
        document["breakdown"][tracer] = name_breakdown(roots)
        jobs = _job_table(tracer, roots)
        if jobs:
            document["jobs"][tracer] = jobs
        series = utilization_series(tracer, roots, bins=bins)
        if series is not None:
            document["utilization"][tracer] = series.as_dict()
        waves = wave_occupancy(tracer, roots)
        if waves:
            document["waves"][tracer] = [wave.as_dict() for wave in waves]
        document["stragglers"].extend(
            straggler.as_dict()
            for straggler in detect_stragglers(tracer, roots, k=straggler_k))
    document["sharing"] = [report.as_dict()
                           for report in attribute_sharing(events, forest)]
    document["shards"] = _shard_balance(events)
    document["slotcheck"] = [
        {"ts": float(instant["ts"]),
         "excluded": int(instant.get("args", {}).get("excluded", 0))}
        for instant in instants_in(events, name="s3.slotcheck")
        if instant.get("args", {}).get("excluded") is not None]
    result = _rounded(document)
    assert isinstance(result, dict)
    return result


def analyze_file(path: pathlib.Path | str, *, bins: int = 40,
                 straggler_k: float = 2.0) -> dict[str, Any]:
    """Load a Chrome-JSON trace and analyze it."""
    return analyze_events(load_events(path), bins=bins,
                          straggler_k=straggler_k)


# ---------------------------------------------------------------- rendering

def _format_seconds(value: float) -> str:
    return f"{value:.6f}"


def _render_critical(document: Mapping[str, Any]) -> list[str]:
    lines = ["critical path (per run root)", "-" * 32]
    omitted = document.get("runs_omitted", 0)
    if omitted:
        lines.append(f"(showing the longest roots; {omitted} shorter "
                     "root span(s) omitted)")
    for run in document["runs"]:
        lines.append(f"[{run['tracer']}] {run['name']} "
                     f"({run['subject'] or 'run'}) "
                     f"wall={_format_seconds(run['wall'])}s")
        for depth, step in enumerate(run["critical_path"]):
            marker = "  " * depth + ("> " if depth else "")
            lines.append(
                f"  {marker}{step['name']}"
                f"{f' [{step_subject}]' if (step_subject := step['subject']) else ''}"
                f"  dur={_format_seconds(step['dur'])}s"
                f"  self={_format_seconds(step['self_time'])}s")
    return lines


def _render_breakdown(document: Mapping[str, Any]) -> list[str]:
    lines = ["time breakdown by span name (self vs total seconds)",
             "-" * 52]
    for tracer, names in document["breakdown"].items():
        if not names:
            continue
        lines.append(f"[{tracer}]")
        width = max(len(name) for name in names)
        lines.append(f"  {'name':<{width}} {'count':>6} {'total_s':>12} "
                     f"{'self_s':>12} {'max_s':>12}")
        for name, stats in names.items():
            lines.append(
                f"  {name:<{width}} {stats['count']:>6} "
                f"{stats['total']:>12.6f} {stats['self']:>12.6f} "
                f"{stats['max']:>12.6f}")
    return lines


def _render_utilization(document: Mapping[str, Any]) -> list[str]:
    lines = ["slot utilization (busy fraction of observed lanes)",
             "-" * 50]
    for tracer, series in document["utilization"].items():
        lines.append(f"[{tracer}] lanes={series['lanes']} "
                     f"mean={series['mean']:.2%}")
        lines.append(f"  |{render_ramp(series['values'])}|")
    return lines


def _render_waves(document: Mapping[str, Any]) -> list[str]:
    lines = ["wave occupancy", "-" * 14]
    for tracer, waves in document["waves"].items():
        lines.append(f"[{tracer}]")
        for wave in waves:
            lines.append(
                f"  {wave['name']:<13} {wave['subject']:<20} "
                f"jobs={wave['jobs']:<3} blocks={wave['blocks']:<4} "
                f"dur={_format_seconds(wave['dur'])}s")
    return lines


def _render_stragglers(document: Mapping[str, Any]) -> list[str]:
    stragglers = document["stragglers"]
    if not stragglers:
        return ["stragglers: none (no task exceeded k x wave median)"]
    lines = ["stragglers (task > k x wave median)", "-" * 35]
    for item in stragglers:
        lines.append(
            f"  [{item['tracer']}] wave={item['wave']} {item['subject']} "
            f"lane={item['lane']} dur={_format_seconds(item['dur'])}s "
            f"({item['ratio']:.1f}x median)")
    return lines


def _render_sharing(document: Mapping[str, Any]) -> list[str]:
    if not document["sharing"]:
        return ["scan sharing: no io.wave counters in this trace"]
    lines = ["scan-sharing attribution (standalone vs attributed physical "
             "reads)", "-" * 64]
    for report in document["sharing"]:
        lines.append(
            f"[{report['tracer']}] logical={report['logical_blocks']} "
            f"physical={report['physical_blocks']} "
            f"standalone={report['standalone_blocks']} "
            f"sharing_ratio={report['sharing_ratio']:.2f}x")
        if report["jobs"]:
            lines.append(f"  {'job':<12} {'standalone':>10} "
                         f"{'attributed':>12} {'ratio':>8}")
            for job in report["jobs"]:
                lines.append(
                    f"  {job['job_id']:<12} {job['standalone_blocks']:>10} "
                    f"{job['attributed_physical']:>12.2f} "
                    f"{job['sharing_ratio']:>7.2f}x")
    return lines


def _render_shards(document: Mapping[str, Any]) -> list[str]:
    lines = ["per-shard read balance", "-" * 22]
    for tracer, table in document["shards"].items():
        lines.append(f"[{tracer}]")
        lines.append(f"  {'shard':<10} {'reads':>7} {'frac':>7} "
                     f"{'fallback':>9} {'failovers':>10}")
        for shard, entry in table.items():
            lines.append(
                f"  {shard:<10} {entry['reads']:>7} "
                f"{entry['fraction']:>6.1%} {entry['fallback_reads']:>9} "
                f"{entry['failovers']:>10}")
    return lines


def format_report(document: Mapping[str, Any]) -> str:
    """Aligned text rendering of an :func:`analyze_events` document."""
    summary = document["summary"]
    sections = [[
        f"{summary['events']} events ({summary['spans']} spans, "
        f"{summary['instants']} instants) from "
        f"{len(summary['tracers'])} tracer(s): "
        f"{', '.join(summary['tracers']) or '(none)'}"]]
    if document["runs"]:
        sections.append(_render_critical(document))
        sections.append(_render_breakdown(document))
    if document["utilization"]:
        sections.append(_render_utilization(document))
    if document["waves"]:
        sections.append(_render_waves(document))
    if document["runs"]:
        sections.append(_render_stragglers(document))
    sections.append(_render_sharing(document))
    if document.get("shards"):
        sections.append(_render_shards(document))
    if document["slotcheck"]:
        ticks = document["slotcheck"]
        peak = max(tick["excluded"] for tick in ticks)
        sections.append([
            f"periodical slot checking: {len(ticks)} tick(s), "
            f"peak {peak} node(s) excluded"])
    return "\n\n".join("\n".join(section) for section in sections)
