"""Trace export: Chrome trace-event JSON and a text summary.

The Chrome format is the JSON array / ``traceEvents`` object understood
by ``chrome://tracing`` and https://ui.perfetto.dev — drop the exported
``.trace.json`` onto Perfetto and every tracer becomes a process track
with one row per lane.  Timestamps are converted from the tracer's
seconds to the format's microseconds; sim-time and wall-time tracers
keep separate tracks, so mixing clock domains in one file renders fine
(their absolute offsets are just not comparable across tracks).

Output ordering is deterministic: events sort by (process, lane, time,
depth, name, record index) and JSON keys are sorted, so identical runs
produce byte-identical files — which is what the golden-file tests pin.
Chrome JSON is the one on-disk encoding: :func:`load_events` reads it
back for ``repro.obs summary`` / ``analyze``, and reads nothing else.
"""

from __future__ import annotations

import json
import pathlib
from typing import IO, Any, Iterable, Iterator, Sequence

from ..common.errors import ExperimentError
from .live.window import exact_percentile
from .tracer import PHASE_INSTANT, PHASE_SPAN, Tracer

_MICRO = 1e6


def _category(name: str) -> str:
    return name.split(".", 1)[0]


def _lane_order(tracer: Tracer) -> list[str]:
    seen: dict[str, None] = {}
    for event in tracer.events():
        seen.setdefault(event.lane, None)
    return sorted(seen)


def chrome_events(tracers: Sequence[Tracer]) -> list[dict[str, Any]]:
    """Flatten ``tracers`` into a sorted Chrome trace-event list.

    Each tracer becomes one pid (with a ``process_name`` metadata
    record), each of its lanes one tid (with ``thread_name``).
    """
    out: list[dict[str, Any]] = []
    sortable: list[tuple[tuple[Any, ...], dict[str, Any]]] = []
    for pid, tracer in enumerate(tracers, start=1):
        out.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": tracer.name},
        })
        lanes = _lane_order(tracer)
        tids = {lane: tid for tid, lane in enumerate(lanes, start=1)}
        for lane in lanes:
            out.append({
                "ph": "M", "name": "thread_name", "pid": pid,
                "tid": tids[lane], "args": {"name": lane},
            })
        for index, event in enumerate(tracer.events()):
            record: dict[str, Any] = {
                "ph": event.phase,
                "name": event.name,
                "cat": _category(event.name),
                "pid": pid,
                "tid": tids[event.lane],
                "ts": round(event.ts * _MICRO, 3),
            }
            if event.phase == PHASE_SPAN:
                record["dur"] = round(event.dur * _MICRO, 3)
            else:
                record["s"] = "t"  # thread-scoped instant
            args = dict(event.args)
            if event.subject:
                args["subject"] = event.subject
            if args:
                record["args"] = args
            sortable.append(
                ((pid, tids[event.lane], record["ts"], event.depth,
                  event.name, index), record))
    sortable.sort(key=lambda pair: pair[0])
    out.extend(record for _, record in sortable)
    return out


def chrome_document(tracers: Sequence[Tracer]) -> dict[str, Any]:
    """The full Chrome trace JSON document for ``tracers``."""
    return {
        "displayTimeUnit": "ms",
        "traceEvents": chrome_events(tracers),
    }


def export_chrome(target: pathlib.Path | str | IO[str],
                  tracers: Sequence[Tracer]) -> int:
    """Write Chrome trace JSON; returns the number of trace events.

    The count excludes the ``ph: "M"`` metadata records naming processes
    and lanes.
    """
    document = chrome_document(tracers)
    own = isinstance(target, (str, pathlib.Path))
    handle: IO[str] = open(target, "w", encoding="utf-8") if own else target
    try:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    finally:
        if own:
            handle.close()
    return sum(1 for e in document["traceEvents"] if e["ph"] != "M")


def event_records(tracers: Iterable[Tracer]) -> Iterator[dict[str, Any]]:
    """Every event of ``tracers`` as a normalised plain dict.

    The one :class:`TraceEvent` → record conversion: the shape
    :func:`load_events` returns and :func:`summarize` / the analyzer
    read.
    """
    for tracer in tracers:
        for event in tracer.events():
            yield {
                "tracer": tracer.name,
                "ph": event.phase,
                "name": event.name,
                "ts": event.ts,
                "dur": event.dur,
                "lane": event.lane,
                "subject": event.subject,
                "args": event.args,
            }


def load_events(path: pathlib.Path | str) -> list[dict[str, Any]]:
    """Load a Chrome trace (an event array or a ``{"traceEvents": …}``
    document) into plain dicts.

    Returns records with keys ``ph``/``name``/``ts``/``dur``/``lane``/
    ``tracer``/``subject``/``args``, timestamps in **seconds**.
    Metadata records are consumed to resolve lane and tracer names, not
    returned.  Any other content raises :class:`ExperimentError`.
    """
    text = pathlib.Path(path).read_text(encoding="utf-8")
    if not text.strip():
        return []
    try:
        payload = json.loads(text)
        if isinstance(payload, dict) and "traceEvents" in payload:
            payload = payload["traceEvents"]
        if not isinstance(payload, list):
            raise ValueError("not a Chrome trace")
        return _from_chrome(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ExperimentError(f"unreadable trace file {path}: {exc}") from exc


def _from_chrome(raw: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    process_names: dict[Any, str] = {}
    thread_names: dict[tuple[Any, Any], str] = {}
    events: list[dict[str, Any]] = []
    for record in raw:
        phase = record.get("ph")
        if phase == "M":
            if record.get("name") == "process_name":
                process_names[record.get("pid")] = record["args"]["name"]
            elif record.get("name") == "thread_name":
                key = (record.get("pid"), record.get("tid"))
                thread_names[key] = record["args"]["name"]
            continue
        if phase not in (PHASE_SPAN, PHASE_INSTANT):
            continue
        pid, tid = record.get("pid"), record.get("tid")
        args = dict(record.get("args", {}))
        events.append({
            "ph": phase,
            "name": record["name"],
            "ts": float(record["ts"]) / _MICRO,
            "dur": float(record.get("dur", 0.0)) / _MICRO,
            "lane": thread_names.get((pid, tid), str(tid)),
            "tracer": process_names.get(pid, str(pid)),
            "subject": args.pop("subject", ""),
            "args": args,
        })
    return events


# One percentile definition for the whole observability layer: the live
# sliding windows (repro.obs.live.window) use the same function, so a
# window covering a full deterministic replay agrees with this offline
# summary exactly, not approximately.
_percentile = exact_percentile


def summarize(events: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Aggregate per-name statistics over :func:`load_events` output.

    Span names additionally get exact p50/p95/p99 duration percentiles
    (instants have no duration, so theirs are all zero).
    """
    by_name: dict[str, dict[str, Any]] = {}
    durations: dict[str, list[float]] = {}
    lanes: set[tuple[str, str]] = set()
    t_min, t_max = float("inf"), float("-inf")
    for event in events:
        stats = by_name.setdefault(event["name"], {
            "phase": event["ph"], "count": 0,
            "total_dur": 0.0, "max_dur": 0.0,
        })
        stats["count"] += 1
        stats["total_dur"] += event["dur"]
        stats["max_dur"] = max(stats["max_dur"], event["dur"])
        durations.setdefault(event["name"], []).append(event["dur"])
        lanes.add((event["tracer"], event["lane"]))
        t_min = min(t_min, event["ts"])
        t_max = max(t_max, event["ts"] + event["dur"])
    for name, stats in by_name.items():
        ordered = sorted(durations[name])
        for label, q in (("p50", 50.0), ("p95", 95.0), ("p99", 99.0)):
            stats[label] = _percentile(ordered, q)
    return {
        "events": len(events),
        "spans": sum(1 for e in events if e["ph"] == PHASE_SPAN),
        "instants": sum(1 for e in events if e["ph"] == PHASE_INSTANT),
        "lanes": len(lanes),
        "span_seconds": (t_max - t_min) if events else 0.0,
        "names": {name: by_name[name] for name in sorted(by_name)},
    }


def format_summary(summary: dict[str, Any]) -> str:
    """Render :func:`summarize` output as an aligned text table."""
    names: dict[str, dict[str, Any]] = summary["names"]
    header = (f"{summary['events']} events "
              f"({summary['spans']} spans, {summary['instants']} instants) "
              f"across {summary['lanes']} lane(s), "
              f"{summary['span_seconds']:.6g}s covered")
    if not names:
        return header
    width = max(4, max(len(name) for name in names))
    lines = [header, "",
             f"{'name':<{width}}  {'kind':<7} {'count':>7} "
             f"{'total_s':>12} {'p50_s':>10} {'p95_s':>10} "
             f"{'p99_s':>10} {'max_s':>12}"]
    for name, stats in names.items():
        kind = "span" if stats["phase"] == PHASE_SPAN else "instant"
        lines.append(
            f"{name:<{width}}  {kind:<7} {stats['count']:>7} "
            f"{stats['total_dur']:>12.6f} {stats['p50']:>10.6f} "
            f"{stats['p95']:>10.6f} {stats['p99']:>10.6f} "
            f"{stats['max_dur']:>12.6f}")
    return "\n".join(lines)
