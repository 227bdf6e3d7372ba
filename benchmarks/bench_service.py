#!/usr/bin/env python
"""Scheduler-service streaming benchmark (deterministic, I/O-unit metrics).

Replays a seeded multi-tenant Poisson arrival schedule against a
:class:`~repro.service.core.SchedulerService` in **step mode** — the
scan is driven inline, arrivals are paced in scan-iteration time — so
every reported metric is bit-stable across machines: scan iterations,
total blocks read (virtual TET), mean blocks-read-at-completion
(virtual ART), admission/rejection counts under a strict pending bound,
and the measured scan-sharing ratio from trace attribution.

Wall-clock seconds are recorded for context but never gated; the
regression gate (``benchmarks/regress.py``) pins the hardware-
independent counters exactly.

Run directly (``--smoke`` shrinks the corpus for CI)::

    PYTHONPATH=src python benchmarks/bench_service.py --smoke
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.common.clock import Stopwatch                        # noqa: E402
from repro.common.config import ExecutionConfig, TraceConfig    # noqa: E402
from repro.localrt.jobs import wordcount_job                    # noqa: E402
from repro.localrt.runners import FifoLocalRunner               # noqa: E402
from repro.localrt.storage import BlockStore                    # noqa: E402
from repro.obs.analyze import attribute_sharing, build_forest   # noqa: E402
from repro.obs.export import export_chrome, load_events         # noqa: E402
from repro.service.config import ServiceConfig                  # noqa: E402
from repro.service.core import SchedulerService                 # noqa: E402
from repro.service.driver import replay_iterations              # noqa: E402
from repro.workloads.arrivals import poisson_streams            # noqa: E402
from repro.workloads.text import TextCorpusGenerator            # noqa: E402
from repro.workloads.wordcount import DEFAULT_PATTERNS          # noqa: E402

DEFAULT_OUT = (pathlib.Path(__file__).resolve().parent.parent
               / "BENCH_service.json")

#: Mean inter-arrival seconds per tenant — fast enough that the pending
#: bound engages and the payload pins a non-trivial rejection count.
TENANTS = {"tenant_a": 0.5, "tenant_b": 0.75}


def job_for(event):
    pattern = DEFAULT_PATTERNS[event.index % len(DEFAULT_PATTERNS)]
    return wordcount_job(f"{event.tenant}_j{event.index}", pattern)


def sharing_ratio(tmp: pathlib.Path, tracer) -> float:
    path = tmp / "service.trace.json"
    export_chrome(path, [tracer])
    events = load_events(path)
    reports = attribute_sharing(events, build_forest(events))
    return reports[0].sharing_ratio if reports else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus for CI (seconds, not minutes)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    if args.smoke:
        corpus_bytes, block_size, jobs_per_tenant, segment = \
            120_000, 10_000, 4, 4
    else:
        corpus_bytes, block_size, jobs_per_tenant, segment = \
            600_000, 25_000, 8, 8

    events = poisson_streams(TENANTS, jobs_per_tenant, seed=2011)
    execution = ExecutionConfig(blocks_per_segment=segment,
                                trace=TraceConfig(enabled=True))
    config = ServiceConfig(execution=execution, max_pending=2,
                           overload_policy="reject",
                           max_jobs_per_iteration=2)

    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = pathlib.Path(tmp_name)
        corpus = list(TextCorpusGenerator(vocabulary_size=1200,
                                          seed=17).lines(corpus_bytes))
        store = BlockStore.create(tmp / "corpus", corpus,
                                  block_size_bytes=block_size)
        service = SchedulerService(store, config)
        watch = Stopwatch()
        replay_iterations(service, events, job_for,
                          iterations_per_second=1.0)
        while service.step():
            pass
        elapsed = watch.elapsed()
        tickets = service.jobs()
        results = dict(service.results())
        accounts = service.accounts()
        snapshot = service.snapshot()
        service.shutdown()
        ratio = sharing_ratio(tmp, service.tracer)

        # The oracle is a solo FIFO run of each completed job: it shares
        # no code with the scan it checks.  (The payload key keeps its
        # historical name; committed baselines pin it.)
        done = [t for t in tickets if t.status.value == "done"]
        done_ids = {t.job_id for t in done}
        fifo = FifoLocalRunner(BlockStore(tmp / "corpus")).run(
            [job_for(e) for e in events
             if f"{e.tenant}_j{e.index}" in done_ids])
        outputs_identical = all(
            results[t.job_id].output == fifo.result(t.job_id).output
            for t in done)

    rejected = sum(acc.rejected for acc in accounts.values())
    art = (sum(results[t.job_id].completed_blocks_read for t in done)
           / len(done)) if done else 0.0
    checks = {
        "all_accepted_jobs_terminal": all(t.status.terminal for t in tickets),
        "outputs_identical_to_batch": outputs_identical,
        "sharing_ratio_gt_one": ratio > 1.0,
    }
    payload = {
        "benchmark": "bench_service",
        "mode": "smoke" if args.smoke else "full",
        "wall_seconds": elapsed,
        "streaming": {
            "num_arrivals": len(events),
            "num_blocks": store.num_blocks,
            "iterations": snapshot["iterations"],
            "blocks_read": snapshot["blocks_read"],
            "virtual_art_blocks": art,
            "sharing_ratio": ratio,
            "completed": len(done),
            "rejected": rejected,
        },
        "fairness": {
            "response": snapshot["fairness"]["response_fairness"],
            "throughput": snapshot["fairness"]["throughput_fairness"],
        },
        "checks": checks,
    }
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))

    failed = [name for name, ok in checks.items() if ok is False]
    if failed:
        print(f"FAILED checks: {failed}", file=sys.stderr)
        return 1
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
