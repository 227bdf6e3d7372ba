"""``python -m repro.service`` — run the scheduler service as a demo daemon.

Generates a small text corpus, starts a live :class:`SchedulerService`
over it, drives a multi-tenant Poisson arrival schedule open-loop, then
drains and prints the per-tenant fairness and SLO reports.  With
``--http PORT`` the routed operator endpoints from
:mod:`repro.service.http` run for the duration: ``/status``,
``/metrics`` (Prometheus text), ``/healthz``, ``/readyz``, ``/tenants``.
``--linger SECONDS`` keeps the endpoints up after the drain so scrapers
and the ``repro.obs top`` dashboard can observe the final state.

Exit status 1 when the final books do not balance
(:func:`repro.service.lifecycle.check_books`: accounts, telemetry, trace
and the driver's own count of accepted / rejected arrivals tell one
story and no accepted job is left live), so a zero exit means every
accepted job reached a terminal state and was booked exactly once.

Examples::

    python -m repro.service --jobs 12 --tenants 3 --time-scale 0.05
    python -m repro.service --jobs 8 --max-pending 2 --policy reject
    python -m repro.service --http 8753 --jobs 20 --linger 30 &
    curl localhost:8753/metrics
    python -m repro.obs top --once
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from http.server import ThreadingHTTPServer
from pathlib import Path

from ..common.config import ExecutionConfig, TraceConfig
from ..localrt.api import LocalJob
from ..localrt.jobs import wordcount_job
from ..localrt.storage import BlockStore
from ..obs.export import export_chrome
from ..obs.live.slo import format_slo_table
from ..workloads.arrivals import ArrivalEvent, poisson_streams
from ..workloads.text import TextCorpusGenerator
from ..workloads.wordcount import DEFAULT_PATTERNS
from .config import OVERLOAD_POLICIES, ServiceConfig
from .core import SchedulerService
from .driver import OpenLoopDriver
from .http import ROUTES, start_http_server
from .lifecycle import check_books


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Live S3 shared-scan scheduler service demo")
    parser.add_argument("--jobs", type=int, default=8,
                        help="arrivals per tenant (default: 8)")
    parser.add_argument("--tenants", type=int, default=2,
                        help="number of tenants (default: 2)")
    parser.add_argument("--mean-interarrival", type=float, default=2.0,
                        help="per-tenant mean inter-arrival seconds "
                             "(default: 2.0)")
    parser.add_argument("--time-scale", type=float, default=0.05,
                        help="schedule time multiplier; 0.05 plays a 2 s "
                             "gap in 0.1 s (default: 0.05)")
    parser.add_argument("--seed", type=int, default=2011,
                        help="arrival-schedule RNG seed (default: 2011)")
    parser.add_argument("--corpus-bytes", type=int, default=300_000,
                        help="generated corpus size (default: 300000)")
    parser.add_argument("--block-size", type=int, default=20_000,
                        help="block size in bytes (default: 20000)")
    parser.add_argument("--segment-blocks", type=int, default=4,
                        help="scan-segment length in blocks (default: 4)")
    parser.add_argument("--max-pending", type=int, default=None,
                        help="pending-queue bound (default: unbounded)")
    parser.add_argument("--policy", choices=OVERLOAD_POLICIES,
                        default="reject",
                        help="overload policy once the bound is hit")
    parser.add_argument("--max-jobs", type=int, default=None,
                        help="S3 admission cap per iteration "
                             "(default: uncapped)")
    parser.add_argument("--window", type=float, metavar="SECONDS",
                        default=60.0,
                        help="live telemetry window horizon in seconds "
                             "(default: 60)")
    parser.add_argument("--http", type=int, metavar="PORT", default=None,
                        help="serve the operator endpoints "
                             f"({', '.join(ROUTES)}) on localhost:PORT "
                             "while the run is live")
    parser.add_argument("--linger", type=float, metavar="SECONDS",
                        default=0.0,
                        help="keep the --http endpoints up this long after "
                             "the drain (default: 0, stop immediately)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="export a Chrome trace of the run to PATH")
    parser.add_argument("--json", action="store_true",
                        help="print the final snapshot as JSON instead of "
                             "the fairness table")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.jobs < 1 or args.tenants < 1:
        print("--jobs and --tenants must be >= 1", file=sys.stderr)
        return 2

    tenants = {f"t{i}": args.mean_interarrival for i in range(args.tenants)}
    events = poisson_streams(tenants, args.jobs, seed=args.seed)

    def factory(event: ArrivalEvent) -> LocalJob:
        pattern = DEFAULT_PATTERNS[event.index % len(DEFAULT_PATTERNS)]
        return wordcount_job(f"{event.tenant}_j{event.index:03d}", pattern)

    execution = ExecutionConfig(
        blocks_per_segment=args.segment_blocks,
        trace=TraceConfig(enabled=args.trace is not None))
    config = ServiceConfig(
        execution=execution,
        max_pending=args.max_pending,
        overload_policy=args.policy,
        max_jobs_per_iteration=args.max_jobs,
        window_horizon_s=args.window)

    with tempfile.TemporaryDirectory(prefix="repro-service-") as tmp:
        generator = TextCorpusGenerator(vocabulary_size=1500, seed=args.seed)
        store = BlockStore.create(Path(tmp) / "corpus",
                                  generator.lines(args.corpus_bytes),
                                  block_size_bytes=args.block_size)
        server: ThreadingHTTPServer | None = None
        with SchedulerService(store, config) as service:
            if args.http is not None:
                server = start_http_server(service, args.http)
                base = (f"http://{server.server_address[0]}:"
                        f"{server.server_address[1]}")
                for route in ROUTES:
                    print(f"endpoint: {base}{route}", file=sys.stderr)
            driver = OpenLoopDriver(service, events, factory,
                                    time_scale=args.time_scale)
            report = driver.run()
            service.drain()
            problems = check_books(service, report)
            snapshot = service.snapshot()
            fairness = service.fairness()
            slo_table = format_slo_table(service.slo_report())
            if args.trace is not None:
                export_chrome(args.trace, [service.tracer])
            if server is not None:
                if args.linger > 0:
                    print(f"lingering {args.linger:g}s for scrapers "
                          f"(endpoints stay live)", file=sys.stderr)
                    time.sleep(args.linger)
                server.shutdown()

    if args.json:
        print(json.dumps(snapshot, indent=2, default=str))
    else:
        print(f"{report.total} arrivals over {args.tenants} tenant(s): "
              f"{len(report.submitted)} accepted, "
              f"{len(report.rejected)} rejected "
              f"({report.elapsed_s:.2f}s wall, "
              f"{snapshot['iterations']} scan iterations, "
              f"{snapshot['blocks_read']} blocks read)")
        print(fairness.format_table())
        print()
        print(slo_table)
        if args.trace is not None:
            print(f"trace written to {args.trace}")
    for problem in problems:
        print(f"books do not balance: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
