#!/usr/bin/env python
"""Memory-tier benchmark: how many block visits never reach the disk.

A block visit is served by one of two tiers: the store handle's
derived-view table (``view_blocks_read``: the visit loads no bytes) or
one disk read (``physical_blocks_read``).  One measurement, written
machine-readably to ``BENCH_cache.json``:

* **fifo_rescan** — ``n_jobs`` FIFO wordcount jobs on a fresh store
  handle.  Job 1 reads every block from disk; the jobs sum, so jobs
  2..n find each block's encoding in the derived-view table and load
  nothing, and the share of visits served from memory is ``(n-1)/n``.
  The run asserts ``logical == physical + view`` and a share of at
  least 90 % (12 jobs -> 91.7 %).  No wall clock is compared
  (``store.read_ms_per_job`` in ``BENCHMARK.json`` tracks it).

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
from repro.localrt.jobs import wordcount_job                    # noqa: E402
from repro.localrt.runners import FifoLocalRunner               # noqa: E402
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
    """FIFO re-scans on one fresh store handle."""
    with tempfile.TemporaryDirectory() as tmp:
        store = build_store(tmp, corpus_bytes, block_size)
        watch = Stopwatch()
        report = FifoLocalRunner(store).run(make_jobs(n_jobs))
        seconds = watch.elapsed()
        io = report.io
        assert io.blocks_read == n_jobs * store.num_blocks
        assert io.blocks_read == io.physical_blocks_read + io.view_blocks_read, \
            "a visit was neither view-served nor one disk read"
        return {
            "n_jobs": n_jobs,
            "num_blocks": store.num_blocks,
            "logical_blocks_read": io.blocks_read,
            "physical_blocks_read": io.physical_blocks_read,
            "view_blocks_read": io.view_blocks_read,
            "hit_ratio": report.cache_hit_ratio,
            "seconds": seconds,
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus for CI (seconds, not minutes)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    if args.smoke:
        corpus_bytes, block_size, n_jobs = 120_000, 10_000, 12
    else:
        corpus_bytes, block_size, n_jobs = 600_000, 25_000, 12

    fifo = bench_fifo_rescan(corpus_bytes, block_size, n_jobs)

    checks = {"fifo_hit_ratio_ge_90pct": fifo["hit_ratio"] >= 0.90}

    payload = {
        "benchmark": "bench_cache",
        "mode": "smoke" if args.smoke else "full",
        "host_cpus": os.cpu_count() or 1,
        "fifo_rescan": fifo,
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
