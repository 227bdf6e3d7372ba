"""``ext-local`` — the Figure 4 story reproduced on *real* data.

The simulator argues in seconds; this experiment argues in bytes.  It
generates a genuine (small) text corpus, runs the paper's pattern-wordcount
job family through the no-sharing FIFO runner and the S3 shared-scan
runner with staggered admissions, and reports hardware-independent I/O
metrics:

* **virtual TET** — total blocks read to complete all jobs;
* **virtual ART** — mean per-job blocks-read-at-completion (each block
  read is one unit of scan work, the resource S3 shares).

The outputs of both runs are verified byte-identical, so the comparison
isolates pure scheduling effects — the same guarantee the paper's Hadoop
plugin needed to provide.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

from ..common.config import ExecutionConfig
from ..common.errors import ExperimentError
from ..localrt.jobs import wordcount_job
from ..localrt.runners import FifoLocalRunner, SharedScanRunner
from ..localrt.storage import BlockStore
from ..metrics.report import format_io_table
from ..workloads.text import TextCorpusGenerator
from ..workloads.wordcount import DEFAULT_PATTERNS
from .base import ExperimentResult

#: Job id -> admission iteration (a staggered, sparse-ish pattern).
DEFAULT_ARRIVALS = {"wc0": 0, "wc1": 1, "wc2": 3, "wc3": 6}


def _make_jobs(num_jobs: int):
    return [wordcount_job(f"wc{i}", DEFAULT_PATTERNS[i % len(DEFAULT_PATTERNS)])
            for i in range(num_jobs)]


def run(num_jobs: int = 4, *, corpus_bytes: int = 400_000,
        block_size_bytes: int = 20_000, blocks_per_segment: int = 4,
        seed: int = 2011,
        execution: ExecutionConfig | None = None) -> ExperimentResult:
    """Run the real-data comparison; returns per-scheme I/O metrics.

    ``execution`` optionally selects the block-cache / read-ahead
    knobs; neither changes the logical I/O metrics (the cache
    changes only *physical* reads, reported separately when enabled).
    """
    if num_jobs <= 0:
        raise ExperimentError("num_jobs must be positive")
    if num_jobs > len(DEFAULT_ARRIVALS):
        raise ExperimentError(
            f"at most {len(DEFAULT_ARRIVALS)} jobs supported by the "
            "default arrival schedule")
    arrivals = {f"wc{i}": DEFAULT_ARRIVALS[f"wc{i}"] for i in range(num_jobs)}
    with tempfile.TemporaryDirectory() as tmp:
        generator = TextCorpusGenerator(vocabulary_size=1500, seed=seed)
        store = BlockStore.create(Path(tmp) / "corpus",
                                  generator.lines(corpus_bytes),
                                  block_size_bytes=block_size_bytes)
        config = dataclasses.replace(execution or ExecutionConfig(),
                                     blocks_per_segment=blocks_per_segment)
        fifo_runner = FifoLocalRunner(store, config)
        shared_runner = SharedScanRunner(store, config)
        fifo = fifo_runner.run(_make_jobs(num_jobs))
        shared = shared_runner.run(_make_jobs(num_jobs), arrivals)

        for job_id in arrivals:
            if (sorted(fifo.results[job_id].output)
                    != sorted(shared.results[job_id].output)):
                raise ExperimentError(
                    f"{job_id}: shared-scan output diverged from FIFO")

        fifo_art = sum(r.completed_blocks_read
                       for r in fifo.results.values()) / num_jobs
        shared_art = sum(r.completed_blocks_read
                         for r in shared.results.values()) / num_jobs
        rows = {
            "FIFO": {"tet_blocks": fifo.blocks_read,
                     "art_blocks": fifo_art},
            "S3": {"tet_blocks": shared.blocks_read,
                   "art_blocks": shared_art},
        }
        saving = 1 - shared.blocks_read / fifo.blocks_read
        lines = [
            f"Extended — real-data shared scan ({num_jobs} wordcount jobs, "
            f"{store.num_blocks} blocks, staggered admissions)",
            "=" * 66,
            f"{'scheme':<8} {'TET (blocks read)':>18} "
            f"{'ART (blocks @ done)':>20}",
            f"{'FIFO':<8} {fifo.blocks_read:>18d} {fifo_art:>20.1f}",
            f"{'S3':<8} {shared.blocks_read:>18d} {shared_art:>20.1f}",
            f"shared scan eliminated {saving:.0%} of all I/O; "
            "outputs byte-identical",
        ]
        extra = {"rows": rows, "saving": saving,
                 "num_blocks": store.num_blocks,
                 "iterations": shared.iterations}
        if execution is not None and execution.cache_capacity_bytes:
            io_rows: dict[str, dict[str, float]] = {}
            io_extra: dict[str, dict[str, float]] = {}
            for scheme, report in (("FIFO", fifo), ("S3", shared)):
                io_rows[scheme] = {
                    "logical_blocks": report.io.blocks_read,
                    "physical_blocks": report.io.physical_blocks_read,
                    "cache_hits": report.io.cache_hits,
                    "cache_misses": report.io.cache_misses,
                }
                io_extra[scheme] = dict(
                    io_rows[scheme],
                    cache_evictions=report.io.cache_evictions,
                    prefetched_blocks=report.io.prefetched_blocks)
            extra["io"] = io_extra
            lines.append("")
            lines.append(format_io_table(
                "block cache effect (logical vs physical reads)", io_rows))
        return ExperimentResult(
            experiment_id="ext-local",
            title="Real-data shared scan (byte-level Figure 4 analogue)",
            extra=extra,
            report="\n".join(lines),
        )
