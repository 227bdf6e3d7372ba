#!/usr/bin/env python
"""Benchmarks of the real-execution runtime: shared scanning + batched path.

Two layers:

* pytest-benchmark cases (``pytest benchmarks/bench_localrt.py``)
  measuring FIFO vs shared-scan wall clock — the local analogue of
  Figure 4's TET gains.
* a CLI mode (``python benchmarks/bench_localrt.py --smoke``) that
  measures the **batched zero-copy scan path** against the per-record
  baseline and writes ``BENCH_localrt.json``: single-thread map-phase
  MB/s for the paper's wordcount and selection workloads on both paths,
  plus equivalence checks (identical outputs, counters and logical I/O
  accounting).  Each workload is measured twice: one job alone, and a
  shared-scan *wave* of concurrent jobs — the paper's operating point,
  where the batched path also amortizes tokenization / columnar
  structure across the wave.  The gated ≥5x target applies to the wave
  measurement.  The selection wave then runs a second lap on the same
  store handle and reports the handle's derived-view table counts
  (``derived_hits`` / ``derived_misses`` / ``derived_admitted``): exact
  on any host, and gated, so a kernel that stops sharing its structural
  pass or its row table between laps fails CI.  It also records, ungated,
  ``wave_end_to_end_mb_s``: the same wave through
  ``SharedScanRunner.run`` — map, shuffle and reduce — on a warm handle
  of its own, since the map phase alone no longer says where a
  selection job's time goes.  Speedup ratios are
  measured per-host (both paths run interleaved on the same machine)
  so they are gated in CI; raw MB/s is recorded for humans but never
  compared across runs.

Run directly (``--smoke`` shrinks the corpora for CI)::

    PYTHONPATH=src python benchmarks/bench_localrt.py --smoke
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
from repro.localrt.jobs import selection_job, wordcount_job     # noqa: E402
from repro.localrt.engine import collect_map_outputs            # noqa: E402
from repro.localrt.records import (                             # noqa: E402
    DelimitedReader, TextLineReader)
from repro.localrt.runners import (                             # noqa: E402
    FifoLocalRunner, SharedScanRunner)
from repro.localrt.storage import BlockStore                    # noqa: E402
from repro.workloads.text import TextCorpusGenerator            # noqa: E402
from repro.workloads.tpch import (                              # noqa: E402
    LINEITEM_COLUMNS, LineitemGenerator,
    quantity_threshold_for_selectivity)

try:
    import pytest
except ImportError:  # CLI mode in minimal CI envs (no test deps)
    pytest = None  # type: ignore[assignment]

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_localrt.json"

PATTERNS = ["^th.*", ".*ing$", "^[aeiou].*", ".*tion$"]

#: Patterns for the batched-vs-per-record comparison.  The first (words
#: containing at least two vowels) is the single-job measurement:
#: moderately expensive to match, which is exactly the cost the batched
#: kernel amortizes to once per *distinct* word.  The full list forms
#: the shared-scan wave.
SCAN_PATTERNS = [r"(?:[a-z]*[aeiou]){2}[a-z]*$", r"^[st].*e.",
                 r".*(ing|ion|ed)$", r"^[a-m].*[n-z]$"]

#: Selectivity of the lineitem selection scan (fraction of rows kept).
SCAN_SELECTIVITY = 0.02

#: Width of the selection wave: this many tenants submit the same hot
#: point query over one shared scan — the paper's headline scenario
#: (many jobs, one input).  The per-record baseline already shares the
#: block parse across the wave, so the comparison isolates per-record
#: mapper dispatch against the batched columnar path.
SELECTION_WAVE_JOBS = 8


# ------------------------------------------------------- pytest-benchmark

if pytest is not None:

    @pytest.fixture(scope="module")
    def corpus():
        with tempfile.TemporaryDirectory() as tmp:
            store = BlockStore.create(
                pathlib.Path(tmp) / "corpus",
                TextCorpusGenerator(vocabulary_size=1000,
                                    seed=17).lines(300_000),
                block_size_bytes=25_000)
            yield store

    def make_jobs():
        return [wordcount_job(f"wc{i}", p) for i, p in enumerate(PATTERNS)]

    def test_fifo_four_jobs(benchmark, corpus):
        report = benchmark(lambda: FifoLocalRunner(corpus).run(make_jobs()))
        assert report.blocks_read == 4 * corpus.num_blocks

    def test_shared_scan_four_jobs(benchmark, corpus):
        runner = SharedScanRunner(corpus, ExecutionConfig(blocks_per_segment=4))
        report = benchmark(lambda: runner.run(make_jobs()))
        # Single shared pass over the file.
        assert report.blocks_read == corpus.num_blocks

    def test_shared_scan_staggered(benchmark, corpus):
        runner = SharedScanRunner(corpus, ExecutionConfig(blocks_per_segment=3))
        arrivals = {"wc1": 1, "wc2": 2, "wc3": 3}
        report = benchmark(lambda: runner.run(make_jobs(), arrivals))
        assert corpus.num_blocks <= report.blocks_read <= 4 * corpus.num_blocks


# ------------------------------------------------------------ CLI helpers

def build_text_store(tmp: str, corpus_bytes: int,
                     block_size: int) -> BlockStore:
    return BlockStore.create(
        pathlib.Path(tmp) / "text",
        TextCorpusGenerator(vocabulary_size=5000, seed=7).lines(corpus_bytes),
        block_size_bytes=block_size)


def build_lineitem_store(tmp: str, corpus_bytes: int,
                         block_size: int) -> BlockStore:
    return BlockStore.create(
        pathlib.Path(tmp) / "lineitem",
        LineitemGenerator(seed=11).rows_for_bytes(corpus_bytes),
        block_size_bytes=block_size)


def map_phase_mb_s(store: BlockStore, reader, make_jobs, *,
                   repetitions: int) -> tuple[float, float]:
    """Single-thread map-phase throughput on both paths, interleaved.

    ``make_jobs(batched)`` builds the wave; one pass reads every block's
    bytes and maps them (per-record jobs pay their one decode inside
    ``collect_map_outputs``), exactly what the map wave does.
    Per-record and batched passes alternate within one process and the
    best of ``repetitions`` passes is kept per side, so machine-state
    swings (CPU frequency, cache pressure) hit both sides alike: raw
    MB/s is noisy but the *ratio* is stable, and both paths run on the
    same host so the ratio is meaningful across machines.  Returns
    ``(per_record_mb_s, batched_mb_s)``.
    """
    best: dict[bool, float] = {}
    for _ in range(repetitions):
        for batched in (False, True):
            jobs = make_jobs(batched)
            watch = Stopwatch()
            for index in range(store.num_blocks):
                collect_map_outputs(jobs, reader,
                                    store.read_block_bytes(index),
                                    store.block_offset(index))
            elapsed = watch.elapsed()
            best[batched] = min(best.get(batched, elapsed), elapsed)
    assert best[False] > 0 and best[True] > 0
    return (store.total_bytes / best[False] / 1e6,
            store.total_bytes / best[True] / 1e6)


def end_to_end_mb_s(store: BlockStore, reader, make_jobs, *,
                    repetitions: int) -> float:
    """Batched wave throughput through ``SharedScanRunner.run`` (map,
    shuffle, reduce), best of ``repetitions`` runs on a fresh handle on
    ``store``'s directory — warm after the first, and apart from
    ``store``'s derived-view table, whose counts are gated."""
    handle = BlockStore(store.directory)
    best = None
    for _ in range(repetitions):
        jobs = make_jobs(True)
        watch = Stopwatch()
        SharedScanRunner(handle, reader=reader).run(jobs)
        elapsed = watch.elapsed()
        best = elapsed if best is None else min(best, elapsed)
    assert best is not None and best > 0
    return handle.total_bytes / best / 1e6


def run_equivalence(store: BlockStore, reader, make_jobs) -> dict:
    """Full wave runs on both paths; everything observable must match."""
    per_record = SharedScanRunner(store, reader=reader).run(make_jobs(False))
    batched = SharedScanRunner(store, reader=reader).run(make_jobs(True))
    pairs = [(per_record.results[job_id], batched.results[job_id])
             for job_id in sorted(per_record.results)]
    first = pairs[0][0]
    return {
        "records": first.map_input_records,
        "output_records": sum(a.reduce_output_records for a, _ in pairs),
        "outputs_identical": all(
            sorted(map(repr, a.output)) == sorted(map(repr, b.output))
            for a, b in pairs),
        "counters_identical": all(
            a.counters.format() == b.counters.format() for a, b in pairs),
        "logical_io_identical":
            per_record.io.blocks_read == batched.io.blocks_read
            and per_record.io.bytes_read == batched.io.bytes_read,
        "blocks_read": batched.io.blocks_read,
    }


def bench_wordcount(corpus_bytes: int, block_size: int,
                    repetitions: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        store = build_text_store(tmp, corpus_bytes, block_size)
        reader = TextLineReader()

        def make_single(batched: bool):
            return [wordcount_job("wc", SCAN_PATTERNS[0], batched=batched)]

        def make_wave(batched: bool):
            return [wordcount_job(f"wc{i}", pattern, batched=batched)
                    for i, pattern in enumerate(SCAN_PATTERNS)]

        single_base, single_fast = map_phase_mb_s(
            store, reader, make_single, repetitions=repetitions)
        wave_base, wave_fast = map_phase_mb_s(
            store, reader, make_wave, repetitions=repetitions)
        equivalence = run_equivalence(store, reader, make_wave)
        return {
            "patterns": SCAN_PATTERNS,
            "corpus_bytes": store.total_bytes,
            "num_blocks": store.num_blocks,
            "per_record_mb_s": single_base,
            "batched_mb_s": single_fast,
            "single_job_speedup": single_fast / single_base,
            "wave_jobs": len(SCAN_PATTERNS),
            "wave_per_record_mb_s": wave_base,
            "wave_batched_mb_s": wave_fast,
            "wave_speedup": wave_fast / wave_base,
            **equivalence,
        }


def bench_selection(corpus_bytes: int, block_size: int,
                    repetitions: int) -> dict:
    threshold = quantity_threshold_for_selectivity(SCAN_SELECTIVITY)
    with tempfile.TemporaryDirectory() as tmp:
        store = build_lineitem_store(tmp, corpus_bytes, block_size)
        reader = DelimitedReader("|", len(LINEITEM_COLUMNS))

        def make_single(batched: bool):
            return [selection_job("sel", threshold, batched=batched)]

        def make_wave(batched: bool):
            return [selection_job(f"sel{i}", threshold, batched=batched)
                    for i in range(SELECTION_WAVE_JOBS)]

        single_base, single_fast = map_phase_mb_s(
            store, reader, make_single, repetitions=repetitions)
        wave_base, wave_fast = map_phase_mb_s(
            store, reader, make_wave, repetitions=repetitions)
        equivalence = run_equivalence(store, reader, make_wave)
        # A second batched lap on the handle the first one warmed: each
        # block's structural pass and row table must now come from the
        # handle's derived-view table.  Exact counts, whatever the host.
        SharedScanRunner(store, reader=reader).run(make_wave(True))
        derived = store.derived.stats()
        end_to_end = end_to_end_mb_s(store, reader, make_wave,
                                     repetitions=repetitions)
        return {
            "derived_hits": derived["hits"],
            "derived_misses": derived["misses"],
            "derived_admitted": derived["admitted"],
            "selectivity": SCAN_SELECTIVITY,
            "threshold": threshold,
            "corpus_bytes": store.total_bytes,
            "num_blocks": store.num_blocks,
            "per_record_mb_s": single_base,
            "batched_mb_s": single_fast,
            "single_job_speedup": single_fast / single_base,
            "wave_jobs": SELECTION_WAVE_JOBS,
            "wave_per_record_mb_s": wave_base,
            "wave_batched_mb_s": wave_fast,
            "wave_speedup": wave_fast / wave_base,
            "wave_end_to_end_mb_s": end_to_end,
            **equivalence,
        }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small corpora for CI (seconds, not minutes)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    if args.smoke:
        corpus_bytes, block_size, repetitions = 2_000_000, 128 * 1024, 3
    else:
        corpus_bytes, block_size, repetitions = 8_000_000, 256 * 1024, 5

    wordcount = bench_wordcount(corpus_bytes, block_size, repetitions)
    selection = bench_selection(corpus_bytes, block_size, repetitions)

    # The ≥5x gate applies to the shared-scan wave — the paper's
    # operating point, where batched kernels also amortize tokenization
    # and columnar structure across every job sharing the scan.
    # Single-job speedups are reported alongside for transparency.
    checks = {
        "wordcount_speedup_ge_5x": wordcount["wave_speedup"] >= 5.0,
        "selection_speedup_ge_5x": selection["wave_speedup"] >= 5.0,
        "outputs_identical": (wordcount["outputs_identical"]
                              and selection["outputs_identical"]),
        "counters_identical": (wordcount["counters_identical"]
                               and selection["counters_identical"]),
        "logical_io_identical": (wordcount["logical_io_identical"]
                                 and selection["logical_io_identical"]),
    }

    payload = {
        "benchmark": "bench_localrt",
        "mode": "smoke" if args.smoke else "full",
        "host_cpus": os.cpu_count() or 1,
        "wordcount": wordcount,
        "selection": selection,
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
