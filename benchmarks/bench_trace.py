#!/usr/bin/env python
"""Tracer benchmark: enabling tracing changes nothing but the trace.

One claim, written machine-readably to ``BENCH_trace.json``:

* **byte-identical outputs** — job outputs and logical read counters
  are equal between a traced and an untraced run of the same
  shared-scan wordcount batch (also property-tested in
  ``tests/properties/test_obs_props.py``; asserted here on the bench
  workload too).

What tracing *costs* is not measured here: the runtime cannot be
un-instrumented, so a tracer-off run has nothing to be compared with
but itself.  ``trace.overhead_share`` in ``BENCHMARK.json`` (traced
replay vs untraced run, per workload) is the tracked number.

Run directly (``--smoke`` shrinks the corpus for CI)::

    PYTHONPATH=src python benchmarks/bench_trace.py --smoke
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
from repro.localrt.runners import SharedScanRunner              # noqa: E402
from repro.localrt.storage import BlockStore                    # noqa: E402
from repro.workloads.text import TextCorpusGenerator            # noqa: E402

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_trace.json"

PATTERNS = ["^th.*", ".*ing$", "^[aeiou].*", ".*tion$"]


def make_jobs(n: int) -> list:
    return [wordcount_job(f"wc{i}", PATTERNS[i % len(PATTERNS)])
            for i in range(n)]


def build_store(tmp: str, corpus_bytes: int, block_size: int) -> BlockStore:
    return BlockStore.create(
        pathlib.Path(tmp) / "corpus",
        TextCorpusGenerator(vocabulary_size=1200, seed=17).lines(corpus_bytes),
        block_size_bytes=block_size)


def normalise(report) -> dict:
    return {job_id: sorted(map(repr, result.output))
            for job_id, result in report.results.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus for CI (seconds, not minutes)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    if args.smoke:
        corpus_bytes, block_size, n_jobs, segment = 120_000, 10_000, 6, 4
    else:
        corpus_bytes, block_size, n_jobs, segment = 600_000, 25_000, 8, 8

    plain_config = ExecutionConfig(blocks_per_segment=segment)
    traced_config = ExecutionConfig(blocks_per_segment=segment,
                                    trace=TraceConfig(enabled=True))

    with tempfile.TemporaryDirectory() as tmp:
        store = build_store(tmp, corpus_bytes, block_size)
        plain_report = SharedScanRunner(store, plain_config).run(
            make_jobs(n_jobs))
        watch = Stopwatch()
        traced_report = SharedScanRunner(store, traced_config).run(
            make_jobs(n_jobs))
        traced_seconds = watch.elapsed()

    identical_outputs = normalise(traced_report) == normalise(plain_report)
    identical_io = (
        traced_report.blocks_read == plain_report.blocks_read
        and traced_report.bytes_read == plain_report.bytes_read
        and traced_report.iterations == plain_report.iterations)

    checks = {
        "traced_outputs_identical": identical_outputs,
        "traced_io_counters_identical": identical_io,
    }

    payload = {
        "benchmark": "bench_trace",
        "mode": "smoke" if args.smoke else "full",
        "tracer_on_seconds": traced_seconds,
        "traced_events": (len(traced_report.metrics.snapshot())
                          if traced_report.metrics else 0),
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
