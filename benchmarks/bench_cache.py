#!/usr/bin/env python
"""Block-cache + read-ahead benchmark: the I/O trajectory of the repo.

Two measurements, written machine-readably to ``BENCH_cache.json`` so the
perf trajectory of the shared-scan I/O path is tracked across PRs:

* **fifo_rescan** — ``n_jobs`` FIFO wordcount jobs over a corpus that
  fits in cache.  Job 1 misses every block; jobs 2..n hit memory, so the
  demand hit ratio converges to ``(n-1)/n``.  The run asserts >= 90 %
  (12 jobs -> 91.7 % even before prefetching helps).  The jobs sum, so
  the memory that answers a repeat visit is the store handle's
  derived-view table, a tier above the cache (``view_blocks_read``,
  counted as hits); the cache sees only what the prefetcher loads.
* **shared_scan_prefetch** — one shared-scan batch, prefetch off vs
  on.  With read-ahead the next segment's
  blocks load while the current segment's mappers run; the run asserts
  that outputs and logical read counters do not change and records the
  physical reads, prefetched blocks and hit ratio.  No wall clock is
  compared (``store.read_ms_per_job`` in ``BENCHMARK.json`` tracks it).

Run directly (``--smoke`` shrinks the corpus for CI)::

    PYTHONPATH=src python benchmarks/bench_cache.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.common.clock import Stopwatch                        # noqa: E402
from repro.common.config import ExecutionConfig                 # noqa: E402
from repro.localrt.cache import BlockCache                      # noqa: E402
from repro.localrt.jobs import wordcount_job                    # noqa: E402
from repro.localrt.runners import FifoLocalRunner, SharedScanRunner  # noqa: E402
from repro.localrt.storage import BlockStore                    # noqa: E402
from repro.workloads.text import TextCorpusGenerator            # noqa: E402

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_cache.json"

PATTERNS = ["^th.*", ".*ing$", "^[aeiou].*", ".*tion$"]


def make_jobs(n: int) -> list:
    return [wordcount_job(f"wc{i}", PATTERNS[i % len(PATTERNS)])
            for i in range(n)]


def build_store(tmp: str, corpus_bytes: int,
                block_size: int) -> BlockStore:
    return BlockStore.create(
        pathlib.Path(tmp) / "corpus",
        TextCorpusGenerator(vocabulary_size=1200, seed=17).lines(corpus_bytes),
        block_size_bytes=block_size)


def bench_fifo_rescan(corpus_bytes: int, block_size: int,
                      n_jobs: int) -> dict:
    """FIFO re-scans with a cache big enough for the whole corpus."""
    with tempfile.TemporaryDirectory() as tmp:
        store = build_store(tmp, corpus_bytes, block_size)
        watch = Stopwatch()
        cold = FifoLocalRunner(store).run(make_jobs(n_jobs))
        cold_s = watch.elapsed()

        store.attach_cache(BlockCache(capacity_bytes=store.total_bytes * 2))
        watch.restart()
        warm = FifoLocalRunner(store, ExecutionConfig(prefetch_depth=4,
                               cache_capacity_bytes=store.total_bytes * 2)
                               ).run(make_jobs(n_jobs))
        warm_s = watch.elapsed()

        assert warm.blocks_read == cold.blocks_read, \
            "cache changed the logical read counters"
        return {
            "n_jobs": n_jobs,
            "num_blocks": store.num_blocks,
            "logical_blocks_read": warm.blocks_read,
            "physical_blocks_read": warm.io.physical_blocks_read,
            "cache_hits": warm.io.cache_hits,
            "cache_misses": warm.io.cache_misses,
            "view_blocks_read": warm.io.view_blocks_read,
            "hit_ratio": warm.cache_hit_ratio,
            "uncached_seconds": cold_s,
            "cached_seconds": warm_s,
        }


def bench_shared_prefetch(corpus_bytes: int, block_size: int,
                          segment: int) -> dict:
    """One shared-scan batch: prefetch off vs on."""
    arrivals = {"wc0": 0, "wc1": 1, "wc2": 2, "wc3": 4}
    with tempfile.TemporaryDirectory() as tmp:
        store = build_store(tmp, corpus_bytes, block_size)
        off = SharedScanRunner(store, ExecutionConfig(
            blocks_per_segment=segment)).run(
            make_jobs(4), arrival_iterations=arrivals)

        cache_bytes = block_size * 4 * segment
        store.attach_cache(BlockCache(capacity_bytes=cache_bytes))
        on = SharedScanRunner(store, ExecutionConfig(
            blocks_per_segment=segment, prefetch_depth=segment,
            cache_capacity_bytes=cache_bytes)).run(
            make_jobs(4), arrival_iterations=arrivals)

        outputs_off = {j: r.output for j, r in off.results.items()}
        outputs_on = {j: r.output for j, r in on.results.items()}
        assert outputs_on == outputs_off, "prefetch changed job outputs"
        assert on.blocks_read == off.blocks_read, \
            "prefetch changed the logical read counters"
        return {
            "num_blocks": store.num_blocks,
            "iterations": on.iterations,
            "logical_blocks_read": on.blocks_read,
            "physical_blocks_read": on.io.physical_blocks_read,
            "prefetched_blocks": on.io.prefetched_blocks,
            "view_blocks_read": on.io.view_blocks_read,
            "hit_ratio": on.cache_hit_ratio,
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus for CI (seconds, not minutes)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    if args.smoke:
        corpus_bytes, block_size, n_jobs, segment = 120_000, 10_000, 12, 4
    else:
        corpus_bytes, block_size, n_jobs, segment = 600_000, 25_000, 12, 8

    fifo = bench_fifo_rescan(corpus_bytes, block_size, n_jobs)
    shared = bench_shared_prefetch(corpus_bytes, block_size, segment)

    checks = {"fifo_hit_ratio_ge_90pct": fifo["hit_ratio"] >= 0.90}

    payload = {
        "benchmark": "bench_cache",
        "mode": "smoke" if args.smoke else "full",
        "host_cpus": os.cpu_count() or 1,
        "fifo_rescan": fifo,
        "shared_scan_prefetch": shared,
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
