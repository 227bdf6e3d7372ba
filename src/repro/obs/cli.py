"""``python -m repro.obs`` — inspect and analyze recorded traces.

Subcommands::

    summary TRACE            aggregate per-event-name statistics
    analyze TRACE            critical path, utilization, scan sharing
    regress BASELINE CURRENT gate a benchmark payload against a baseline
    top [--url U] [--once]   live dashboard over a service's /metrics

``summary``/``analyze`` read a Chrome trace-event JSON file (what every
traced run exports); ``--json`` / ``--format json`` emit machine-readable
output for CI assertions.  ``regress`` compares two ``BENCH_*.json``
payloads with the default metric specs for that benchmark and exits
non-zero on regression (see :mod:`repro.obs.regress`).  ``top`` scrapes
a running ``python -m repro.service --http PORT`` endpoint and renders
queue depths, window percentiles and SLO burn
(see :mod:`repro.obs.live.top`).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Sequence

from ..common.errors import ExperimentError
from .analyze import analyze_events, format_report
from .live.top import DEFAULT_URL, run_top
from .export import format_summary, load_events, summarize
from .regress import compare, format_regression, load_payload, specs_for


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect or analyze a recorded trace.")
    sub = parser.add_subparsers(dest="command", required=True)

    summary = sub.add_parser(
        "summary", help="print per-event-name statistics for a trace")
    summary.add_argument("trace", type=pathlib.Path,
                         help="Chrome .trace.json trace file")
    summary.add_argument("--json", action="store_true",
                         help="emit the summary as JSON instead of a table")

    analyze = sub.add_parser(
        "analyze",
        help="critical path, utilization timeline and scan-sharing "
             "attribution for a trace")
    analyze.add_argument("trace", type=pathlib.Path,
                         help="Chrome .trace.json trace file")
    analyze.add_argument("--format", choices=("text", "json"),
                         default="text", help="output format")
    analyze.add_argument("--bins", type=int, default=40,
                         help="utilization timeline resolution")
    analyze.add_argument("--straggler-k", type=float, default=2.0,
                         help="straggler threshold (k x wave median)")

    regress = sub.add_parser(
        "regress",
        help="compare a fresh BENCH_*.json against a committed baseline")
    regress.add_argument("baseline", type=pathlib.Path,
                         help="committed baseline payload")
    regress.add_argument("current", type=pathlib.Path,
                         help="freshly produced payload")
    regress.add_argument("--json", action="store_true",
                         help="emit the comparison as JSON")

    top = sub.add_parser(
        "top", help="live dashboard over a scheduler service's /metrics")
    top.add_argument("--url", default=DEFAULT_URL,
                     help=f"exposition endpoint (default {DEFAULT_URL})")
    top.add_argument("--once", action="store_true",
                     help="print a single frame and exit (tests/CI)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="refresh interval in seconds (default: 2.0)")
    return parser


def _cmd_regress(args: argparse.Namespace) -> int:
    try:
        baseline = load_payload(args.baseline)
        current = load_payload(args.current)
        specs = specs_for(baseline)
    except (OSError, ValueError, ExperimentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = compare(str(baseline.get("benchmark", args.baseline.name)),
                     baseline, current, specs)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(format_regression(report))
    return 0 if report.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "regress":
        return _cmd_regress(args)
    if args.command == "top":
        return run_top(args.url, once=args.once, interval_s=args.interval)

    try:
        events = load_events(args.trace)
    except (OSError, ExperimentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "summary":
        summary = summarize(events)
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(format_summary(summary))
        return 0

    # analyze
    try:
        document = analyze_events(events, bins=args.bins,
                                  straggler_k=args.straggler_k)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(format_report(document))
    return 0
