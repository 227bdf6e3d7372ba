"""``ext-stream`` — closed-loop FIFO vs the open-loop S3 service.

Every other experiment is closed-loop: the harness owns the job list and
the runner controls arrival.  This one drives the **live scheduler
service** open-loop — a fixed multi-tenant Poisson schedule is replayed
against the running scan (arrivals paced in scan-iteration time, the
scan stepped one iteration per second of a virtual clock, so the run
and its report reproduce exactly), and late arrivals join mid-scan
through the paper's segment-aligned admission path.

Compared schemes:

* **FIFO (closed loop)** — the no-sharing baseline: the same job set,
  run back-to-back by :class:`~repro.localrt.runners.FifoLocalRunner`.
  Its *scan* shares nothing, so its TET is the sum of the jobs' scans.
* **S3 service (open loop)** — jobs submitted over time to a
  :class:`~repro.service.core.SchedulerService`; sharing emerges from
  whatever overlap the arrival schedule leaves.

Both runs are traced and the scan-sharing attribution table (PR 5's
``io.wave`` x ``job_ids`` join) splits physical reads per job, so the
sharing column is a *measured* ratio of demand to disk reads, not an
inferred one.  Each scheme's store handle keeps derived views, and the
jobs all sum, so a block is read from disk once per handle whichever
job visits it first, and a job whose every visit the table answered is
charged nothing (0.00x: unattributable).  Both ratios therefore reach
the jobs per block; TET and ART are what tell the schemes apart.
Outputs are verified byte-identical between schemes.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from ..common.clock import FakeClock
from ..common.config import ExecutionConfig, TraceConfig
from ..common.errors import ExperimentError
from ..localrt.api import LocalJob
from ..localrt.jobs import wordcount_job
from ..localrt.runners import FifoLocalRunner
from ..localrt.storage import BlockStore
from ..obs.analyze import SharingReport, attribute_sharing, build_forest
from ..obs.export import export_chrome, load_events
from ..obs.live.slo import SLOConfig, format_slo_table
from ..obs.tracer import Tracer
from ..service.config import ServiceConfig
from ..service.core import SchedulerService
from ..service.driver import replay_iterations
from ..workloads.arrivals import ArrivalEvent, poisson_streams
from ..workloads.text import TextCorpusGenerator
from ..workloads.wordcount import DEFAULT_PATTERNS
from .base import ExperimentResult

#: Tenants and their mean inter-arrival times (seconds of schedule time).
DEFAULT_TENANTS = {"tenant_a": 2.0, "tenant_b": 3.0}


def _job_for(event: ArrivalEvent) -> LocalJob:
    pattern = DEFAULT_PATTERNS[event.index % len(DEFAULT_PATTERNS)]
    return wordcount_job(f"{event.tenant}_j{event.index}", pattern)


def _sharing_for(tmp: Path, label: str, tracer: Tracer) -> SharingReport:
    """Round-trip a tracer through export and run attribution on it."""
    path = tmp / f"{label}.trace.json"
    export_chrome(path, [tracer])
    events = load_events(path)
    reports = attribute_sharing(events, build_forest(events))
    if len(reports) != 1:
        raise ExperimentError(
            f"{label}: expected one attributable tracer, got {len(reports)}")
    return reports[0]


def run(jobs_per_tenant: int = 4, *, corpus_bytes: int = 400_000,
        block_size_bytes: int = 20_000, blocks_per_segment: int = 4,
        seed: int = 2011) -> ExperimentResult:
    """Run the open-loop streaming comparison; returns per-scheme metrics."""
    if jobs_per_tenant <= 0:
        raise ExperimentError("jobs_per_tenant must be positive")
    events = poisson_streams(DEFAULT_TENANTS, jobs_per_tenant, seed=seed)
    num_jobs = len(events)
    execution = ExecutionConfig(blocks_per_segment=blocks_per_segment,
                                trace=TraceConfig(enabled=True))
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        generator = TextCorpusGenerator(vocabulary_size=1500, seed=seed)
        corpus = list(generator.lines(corpus_bytes))

        # Closed-loop FIFO baseline: same jobs, no sharing possible.
        fifo_store = BlockStore.create(tmp / "fifo", corpus,
                                       block_size_bytes=block_size_bytes)
        fifo_runner = FifoLocalRunner(fifo_store, execution)
        fifo = fifo_runner.run([_job_for(e) for e in events])
        fifo_sharing = _sharing_for(tmp, "fifo", fifo_runner.tracer)

        # Open-loop S3 service: the same schedule replayed in iteration
        # time against the live scan (deterministic admission pattern).
        s3_store = BlockStore.create(tmp / "s3", corpus,
                                     block_size_bytes=block_size_bytes)
        # Step mode on a virtual clock, one second per iteration, so
        # every time reported is schedule time and reproduces; the
        # latency objective is two passes of the file.
        clock = FakeClock()
        passes = -(-s3_store.num_blocks // blocks_per_segment)
        service = SchedulerService(s3_store, ServiceConfig(
            execution=execution, slo=SLOConfig(objective_s=2.0 * passes)),
            clock=clock)
        replay_iterations(service, events, _job_for,
                          iterations_per_second=1.0)
        while service.step():
            clock.advance(1.0)
        tickets = service.jobs()
        fairness = service.fairness()
        slo_statuses = service.slo_report()
        results = dict(service.results())
        iterations = service.iterations
        blocks_read = service.snapshot()["blocks_read"]
        service.shutdown()
        s3_sharing = _sharing_for(tmp, "s3", service.tracer)

        bad = [t.job_id for t in tickets if t.status.value != "done"]
        if bad:
            raise ExperimentError(f"service left non-done jobs: {bad}")
        for event in events:
            job_id = _job_for(event).job_id
            if results[job_id].output != fifo.results[job_id].output:
                raise ExperimentError(
                    f"{job_id}: service output diverged from FIFO")

        fifo_art = sum(r.completed_blocks_read
                       for r in fifo.results.values()) / num_jobs
        s3_art = sum(r.completed_blocks_read
                     for r in results.values()) / num_jobs
        rows = {
            "FIFO": {"tet_blocks": fifo.blocks_read, "art_blocks": fifo_art,
                     "sharing_ratio": fifo_sharing.sharing_ratio},
            "S3": {"tet_blocks": blocks_read, "art_blocks": s3_art,
                   "sharing_ratio": s3_sharing.sharing_ratio},
        }
        lines = [
            f"Extended — open-loop streaming service ({num_jobs} wordcount "
            f"jobs, {len(DEFAULT_TENANTS)} tenants, "
            f"{s3_store.num_blocks} blocks, Poisson arrivals)",
            "=" * 72,
            f"{'scheme':<16} {'TET (blocks)':>13} {'ART (blocks)':>13} "
            f"{'sharing':>8}",
            f"{'FIFO (closed)':<16} {fifo.blocks_read:>13d} "
            f"{fifo_art:>13.1f} {fifo_sharing.sharing_ratio:>7.2f}x",
            f"{'S3 (open loop)':<16} {blocks_read:>13d} "
            f"{s3_art:>13.1f} {s3_sharing.sharing_ratio:>7.2f}x",
            "",
            "scan-sharing attribution (S3 service run)",
            "-" * 42,
        ]
        for job in s3_sharing.jobs:
            lines.append(
                f"{job.job_id:<16} standalone {job.standalone_blocks:>4d}  "
                f"attributed {job.attributed_physical:>7.1f}  "
                f"ratio {job.sharing_ratio:>5.2f}x")
        lines.append("")
        lines.append(fairness.format_table())
        lines.append("")
        lines.append(format_slo_table(slo_statuses))
        lines.append(
            f"outputs byte-identical across schemes; "
            f"{iterations} scan iterations")
        return ExperimentResult(
            experiment_id="ext-stream",
            title="Open-loop streaming service (FIFO closed vs S3 live)",
            extra={
                "rows": rows,
                "num_blocks": s3_store.num_blocks,
                "iterations": iterations,
                "fairness": fairness.as_dict(),
                "slo": [status.as_dict() for status in slo_statuses],
                "s3_attribution": s3_sharing.as_dict(),
                "fifo_attribution": fifo_sharing.as_dict(),
            },
            report="\n".join(lines),
        )
