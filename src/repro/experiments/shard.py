"""``ext-shard`` — shared scans over a sharded, replicated block store.

``ext-local`` shows byte-level scan sharing on a single :class:`~repro.
localrt.storage.BlockStore`; this experiment re-runs the same workload
on a :class:`~repro.localrt.sharded.ShardedBlockStore` (N shards,
replication R) and checks three properties the paper's HDFS deployment
relies on:

* **Sharing is placement-independent** — the S3 runner's I/O saving over
  FIFO on the sharded store matches the single-store saving (the scan
  scheduler never looks at where a block lives, only at its index);
* **Reads balance across shards** — with round-robin primary placement
  every shard serves ~1/N of the logical reads (the per-shard balance
  table in the report);
* **A mid-scan shard loss is invisible to results** — failing one shard
  between iterations forces the remaining reads of its primary blocks
  onto replicas; outputs and *logical* I/O counters stay byte-identical
  while ``replica_fallback_reads`` records the rerouting.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

from ..common.config import ExecutionConfig
from ..common.errors import ExperimentError
from ..localrt.runners import FifoLocalRunner, SharedScanRunner
from ..localrt.sharded import ShardedBlockStore, shard_id
from ..localrt.storage import BlockStore
from ..workloads.text import TextCorpusGenerator
from .base import ExperimentResult
from .local_shared_scan import DEFAULT_ARRIVALS, _make_jobs

#: Largest acceptable gap between sharded and single-store S3 saving.
SAVING_TOLERANCE = 0.05


def _balance_lines(title: str, reads: tuple[int, ...]) -> list[str]:
    total = sum(reads)
    lines = [title, f"{'shard':<10} {'reads':>8} {'fraction':>10}"]
    for shard, count in enumerate(reads):
        fraction = count / total if total else 0.0
        lines.append(f"{shard_id(shard):<10} {count:>8d} {fraction:>10.1%}")
    return lines


def run(num_jobs: int = 4, *, corpus_bytes: int = 400_000,
        block_size_bytes: int = 20_000, blocks_per_segment: int = 4,
        num_shards: int = 4, replication: int = 2,
        failed_shard: int = 0, fail_at_iteration: int = 2,
        seed: int = 2011,
        execution: ExecutionConfig | None = None) -> ExperimentResult:
    """Run the sharded-store comparison plus the mid-scan failure drill.

    Three stores are built from the *same* corpus lines: a single-store
    reference (for the saving cross-check), a sharded store (FIFO vs S3
    plus the balance table) and a second sharded store used only for the
    failure drill, so down state and fallback counters never leak
    between measurements.
    """
    if num_jobs <= 0:
        raise ExperimentError("num_jobs must be positive")
    if num_jobs > len(DEFAULT_ARRIVALS):
        raise ExperimentError(
            f"at most {len(DEFAULT_ARRIVALS)} jobs supported by the "
            "default arrival schedule")
    if not 0 <= failed_shard < num_shards:
        raise ExperimentError(
            f"failed_shard {failed_shard} out of range for "
            f"{num_shards} shards")
    if replication < 2:
        raise ExperimentError(
            "the failure drill needs replication >= 2 (a lost shard must "
            "leave a live replica)")
    arrivals = {f"wc{i}": DEFAULT_ARRIVALS[f"wc{i}"] for i in range(num_jobs)}
    with tempfile.TemporaryDirectory() as tmp:
        generator = TextCorpusGenerator(vocabulary_size=1500, seed=seed)
        lines_data = list(generator.lines(corpus_bytes))
        single = BlockStore.create(Path(tmp) / "corpus", lines_data,
                                   block_size_bytes=block_size_bytes)
        sharded = ShardedBlockStore.create(
            Path(tmp) / "shards", lines_data, block_size_bytes,
            num_shards=num_shards, replication=replication)
        drill = ShardedBlockStore.create(
            Path(tmp) / "shards_fail", lines_data, block_size_bytes,
            num_shards=num_shards, replication=replication)
        config = dataclasses.replace(execution or ExecutionConfig(),
                                     blocks_per_segment=blocks_per_segment)

        fifo = FifoLocalRunner(sharded, config).run(_make_jobs(num_jobs))
        balance_before = sharded.shard_blocks_read()
        shared = SharedScanRunner(sharded, config).run(
            _make_jobs(num_jobs), arrivals)
        balance = tuple(after - before for after, before in
                        zip(sharded.shard_blocks_read(), balance_before))

        fifo_single = FifoLocalRunner(single, config).run(
            _make_jobs(num_jobs))
        shared_single = SharedScanRunner(single, config).run(
            _make_jobs(num_jobs), arrivals)

        for job_id in arrivals:
            if (sorted(fifo.results[job_id].output)
                    != sorted(shared.results[job_id].output)):
                raise ExperimentError(
                    f"{job_id}: sharded shared-scan output diverged "
                    "from FIFO")
            if (sorted(shared.results[job_id].output)
                    != sorted(shared_single.results[job_id].output)):
                raise ExperimentError(
                    f"{job_id}: sharded output diverged from the "
                    "single-store reference")

        saving = 1 - shared.blocks_read / fifo.blocks_read
        saving_single = (1 - shared_single.blocks_read
                         / fifo_single.blocks_read)
        if abs(saving - saving_single) > SAVING_TOLERANCE:
            raise ExperimentError(
                f"sharded S3 saving {saving:.3f} drifted from the "
                f"single-store saving {saving_single:.3f} "
                f"(tolerance {SAVING_TOLERANCE})")

        # Failure drill: lose one shard between scan iterations and let
        # replica failover carry the rest of the scan.
        def lose_shard(iteration: int, run_states: object) -> None:
            if (iteration == fail_at_iteration
                    and failed_shard not in drill.down_shards()):
                drill.fail_shard(failed_shard)

        drilled = SharedScanRunner(drill, config).run(
            _make_jobs(num_jobs), arrivals, on_iteration_end=lose_shard)
        fallback_reads = drill.stats_snapshot().replica_fallback_reads
        for job_id in arrivals:
            if (sorted(drilled.results[job_id].output)
                    != sorted(shared.results[job_id].output)):
                raise ExperimentError(
                    f"{job_id}: output changed after mid-scan loss of "
                    f"{shard_id(failed_shard)}")
        if (drilled.blocks_read != shared.blocks_read
                or drilled.bytes_read != shared.bytes_read):
            raise ExperimentError(
                "mid-scan shard loss changed the logical I/O counters: "
                f"{drilled.blocks_read}/{drilled.bytes_read} vs "
                f"{shared.blocks_read}/{shared.bytes_read}")
        if fallback_reads <= 0:
            raise ExperimentError(
                f"failure drill at iteration {fail_at_iteration} never "
                "exercised replica failover (replica_fallback_reads == 0)")

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
        lines = [
            f"Extended — shared scan over a sharded store ({num_jobs} "
            f"wordcount jobs, {sharded.num_blocks} blocks, "
            f"{num_shards} shards, R={replication})",
            "=" * 66,
            f"{'scheme':<8} {'TET (blocks read)':>18} "
            f"{'ART (blocks @ done)':>20}",
            f"{'FIFO':<8} {fifo.blocks_read:>18d} {fifo_art:>20.1f}",
            f"{'S3':<8} {shared.blocks_read:>18d} {shared_art:>20.1f}",
            f"shared scan eliminated {saving:.0%} of all I/O "
            f"(single-store reference: {saving_single:.0%}); "
            "outputs byte-identical",
            "",
        ]
        lines.extend(_balance_lines(
            "per-shard read balance (S3 run, no failures)", balance))
        lines.extend([
            "",
            f"failure drill: lost {shard_id(failed_shard)} after "
            f"iteration {fail_at_iteration}; "
            f"{fallback_reads} reads failed over to replicas; "
            "outputs and logical I/O unchanged",
        ])
        lines.extend(_balance_lines(
            "per-shard read balance (S3 run, mid-scan shard loss)",
            drill.shard_blocks_read()))
        extra = {
            "rows": rows,
            "saving": saving,
            "saving_single_store": saving_single,
            "num_blocks": sharded.num_blocks,
            "num_shards": num_shards,
            "replication": replication,
            "iterations": shared.iterations,
            "shard_reads": list(balance),
            "failover": {
                "failed_shard": failed_shard,
                "at_iteration": fail_at_iteration,
                "replica_fallback_reads": fallback_reads,
                "shard_reads": list(drill.shard_blocks_read()),
            },
        }
        return ExperimentResult(
            experiment_id="ext-shard",
            title="Sharded-store shared scan with mid-scan failover",
            extra=extra,
            report="\n".join(lines),
        )
