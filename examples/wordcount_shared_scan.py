#!/usr/bin/env python
"""Real shared scanning: pattern-wordcount jobs over actual files on disk.

This example uses the *local runtime* (a genuinely-executing mini-MapReduce
engine) rather than the simulator: it generates a small synthetic text
corpus, stores it as line-aligned blocks (a miniature HDFS), then runs four
pattern-restricted wordcount jobs two ways:

1. FIFO — each job scans every block itself;
2. S3 shared scan — the circular segment loop; jobs are admitted at
   different iterations (staggered arrivals) and share each block read.

Both runs produce byte-identical outputs; the S3 run reads a fraction of
the bytes.  The shared-scan run is then repeated on its store handle
to show the logical / physical / view-served counter split: a block visit
is either one disk read or answered by the handle's derived-view table
with no bytes loaded, so on the warm second run the logical reads stay
the same and the disk reads drop to zero.  That run is traced: it writes
``wordcount.trace.json`` next to this script — open it at
https://ui.perfetto.dev to see the ``s3.iteration`` / ``map.wave`` /
``reduce.job`` span tree.
Run:
python examples/wordcount_shared_scan.py
"""

import tempfile
from pathlib import Path

from repro.common.config import ExecutionConfig, TraceConfig
from repro.localrt import (
    BlockStore,
    FifoLocalRunner,
    SharedScanRunner,
    wordcount_job,
)
from repro.workloads.text import TextCorpusGenerator

#: The paper's modified-wordcount job family: one match pattern per job.
PATTERNS = {
    "wc-s": "^s.*",         # words starting with "s"
    "wc-ing": ".*ing$",     # gerunds
    "wc-ly": ".*ly$",       # adverbs
    "wc-tion": ".*tion$",
}

#: Job -> admission iteration (staggered arrivals, as in the paper).
ARRIVALS = {"wc-s": 0, "wc-ing": 1, "wc-ly": 2, "wc-tion": 4}


def make_jobs():
    return [wordcount_job(job_id, pattern)
            for job_id, pattern in PATTERNS.items()]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        corpus_dir = Path(tmp) / "corpus"
        generator = TextCorpusGenerator(vocabulary_size=2000, seed=7)
        store = BlockStore.create(corpus_dir, generator.lines(400_000),
                                  block_size_bytes=25_000)
        print(f"corpus: {store.num_blocks} blocks, "
              f"{store.total_bytes / 1024:.0f} KiB\n")

        config = ExecutionConfig(blocks_per_segment=3)
        fifo = FifoLocalRunner(store, config).run(make_jobs())
        # A fresh handle on the same blocks: the S3 run starts cold too.
        shared_store = BlockStore(corpus_dir)
        shared = SharedScanRunner(shared_store, config).run(
            make_jobs(), arrival_iterations=ARRIVALS)

        print(f"{'scheme':<12} {'blocks read':>12} {'bytes read':>12}")
        print("-" * 38)
        print(f"{'FIFO':<12} {fifo.blocks_read:>12} {fifo.bytes_read:>12}")
        print(f"{'S3 shared':<12} {shared.blocks_read:>12} {shared.bytes_read:>12}")
        saving = 1 - shared.bytes_read / fifo.bytes_read
        print(f"\nshared scan eliminated {saving:.0%} of the I/O "
              f"({shared.iterations} iterations)\n")

        for job_id in PATTERNS:
            a = dict(fifo.results[job_id].output)
            b = dict(shared.results[job_id].output)
            if not b:
                raise SystemExit(f"{job_id}: {PATTERNS[job_id]!r} matched "
                                 "no word; the comparison would be empty")
            assert a == b, f"output mismatch for {job_id}"
            top = sorted(b.items(), key=lambda kv: -kv[1])[:3]
            rendered = ", ".join(f"{w}={c}" for w, c in top)
            done = shared.results[job_id].completed_iteration
            print(f"{job_id:<10} (done @ iter {done:>2}) top words: {rendered}")
        print("\noutputs identical between FIFO and shared-scan runs ✓")

        trace_path = Path(__file__).with_name("wordcount.trace.json")
        warm = SharedScanRunner(shared_store, ExecutionConfig(
            blocks_per_segment=3,
            trace=TraceConfig(enabled=True, path=str(trace_path)))).run(
            make_jobs(), arrival_iterations=ARRIVALS)
        assert all(warm.results[j].output == shared.results[j].output
                   for j in PATTERNS), "a warm run changed outputs"
        assert warm.blocks_read == shared.blocks_read, \
            "a warm run changed the logical counters"

        print("\nblock visits by tier (logical = physical + view-served):")
        print(f"{'run':<16} {'logical':>8} {'physical':>9} {'view':>6}")
        print("-" * 42)
        for name, report in (("FIFO", fifo), ("S3 shared", shared),
                             ("S3 again (warm)", warm)):
            io = report.io
            assert io.blocks_read == io.physical_blocks_read + io.view_blocks_read
            print(f"{name:<16} {io.blocks_read:>8} "
                  f"{io.physical_blocks_read:>9} {io.view_blocks_read:>6}")
        print("the table changes *whether* bytes move, never results ✓")

        print(f"\ntrace written to {warm.trace_path}")
        print("open it at https://ui.perfetto.dev, or summarise it with:")
        print(f"  python -m repro.obs summary {trace_path.name}")


if __name__ == "__main__":
    main()
