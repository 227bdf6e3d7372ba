#!/usr/bin/env python
"""Figure 3 on the runtime: the CPU cost of n wordcount jobs on one scan.

The paper's first result is what n jobs combined on one circular scan
cost against one: 1.255 x at ten.  This benchmark measures the
runtime's own curve.  ``SharedScanRunner`` runs n summing wordcount
jobs (the eight patterns of the end-to-end benchmark, in turn), all
admitted at iteration 0, for n in {1, 2, 4, 8, 10}, on two cells:

* **warm** — one store handle, warmed by one run first, so every block
  visit is served from its derived-view table and no byte is loaded;
* **cold** — a fresh handle on the same directory per run, so every
  block is read from disk, tokenised and encoded once per run.

Per (cell, n) it records, machine-readably in ``BENCH_riders.json``:

* **gated counts** (hardware-independent): logical, physical and
  view-served block reads, records in (``map_input_records``) and out
  (``reduce_output_records``) summed over the jobs, and whether every
  job's output equals a solo ``FifoLocalRunner`` run of its pattern;
* **ungated CPU** (``process_time``, GC included): the median CPU of
  one run over ``runs`` runs, with its quartiles, and per cell the
  ratio of the median at ten to the median at one and the marginal CPU
  of a rider.  The n values are interleaved run by run, so a host that
  drifts between speeds moves every n alike; the cells run one after
  the other, so no cold run's allocations sit between two warm runs.

A third cell, **steady**, is the fixed cost of one wave: one warm
summing rider on ``core_churn``'s geometry (64 KB of the same text in
1 KB blocks, two blocks a wave), where the map work is a few
microseconds and a job rides about thirty waves.  It records the
gated waves, logical and view-served reads and FIFO-equal output of
one run, and the ungated ``cpu_us_per_wave``: the median, with its
quartiles, over ``steady_samples`` samples of ``STEADY_RUNS`` runs.

Run directly (``--smoke`` shrinks the corpus and the run count for
CI)::

    PYTHONPATH=src python benchmarks/bench_riders.py --smoke
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pathlib
import statistics
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.common.config import ExecutionConfig                 # noqa: E402
from repro.localrt.jobs import wordcount_job                    # noqa: E402
from repro.localrt.runners import FifoLocalRunner, SharedScanRunner  # noqa: E402
from repro.localrt.storage import BlockStore                    # noqa: E402
from repro.workloads.text import TextCorpusGenerator            # noqa: E402

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_riders.json"

#: The end-to-end benchmark's eight wordcount patterns (all match part
#: of the syllable vocabulary).
PATTERNS = (".*ing$", ".*ed$", ".*tion$", "^s.*e$",
            ".*ness$", ".*ly$", "^b.*", ".*s$")

RIDERS = (1, 2, 4, 8, 10)

#: The scan's segment: four blocks a wave, as on ``wc_dense``.
BLOCKS_PER_SEGMENT = 4

#: The steady cell's corpus, block size and segment (``core_churn``'s),
#: and the runs timed together as one sample.
STEADY_CORPUS_BYTES, STEADY_BLOCK_SIZE, STEADY_SEGMENT = 64 << 10, 1 << 10, 2
STEADY_RUNS = 10


def build_store(directory: pathlib.Path, corpus_bytes: int,
                block_size: int) -> BlockStore:
    """``wc_dense``'s corpus: the first MB of a 5 000-word syllable
    stream (seed 7), repeated to ``corpus_bytes``."""
    tile = list(TextCorpusGenerator(5000, seed=7).lines(
        min(corpus_bytes, 1 << 20)))
    lines = []
    emitted = 0
    for line in itertools.cycle(tile):
        if emitted >= corpus_bytes:
            break
        emitted += len(line) + 1
        lines.append(line)
    return BlockStore.create(directory, lines, block_size_bytes=block_size)


def make_jobs(n: int) -> list:
    return [wordcount_job(f"r{i}", PATTERNS[i % len(PATTERNS)])
            for i in range(n)]


def run_once(store: BlockStore, n: int) -> tuple[float, object]:
    """One ``SharedScanRunner`` run of ``n`` riders: CPU ms, report."""
    runner = SharedScanRunner(store, ExecutionConfig(
        blocks_per_segment=BLOCKS_PER_SEGMENT))
    jobs = make_jobs(n)
    started = time.process_time()
    report = runner.run(jobs)
    return (time.process_time() - started) * 1e3, report


def counts(report, oracle: dict) -> dict:
    """A run's gated counts."""
    io = report.io
    results = report.results
    return {
        "logical_blocks_read": io.blocks_read,
        "physical_blocks_read": io.physical_blocks_read,
        "view_blocks_read": io.view_blocks_read,
        "records_in": sum(r.map_input_records for r in results.values()),
        "records_out": sum(r.reduce_output_records
                           for r in results.values()),
        "outputs_equal_fifo": all(
            result.output == oracle[PATTERNS[int(job_id[1:]) % len(PATTERNS)]]
            for job_id, result in results.items()),
    }


def cpu_summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"cpu_ms_median": median, "cpu_ms_q1": q1, "cpu_ms_q3": q3,
            "cpu_ms_min": min(samples), "cpu_ms_max": max(samples)}


def bench(directory: pathlib.Path, runs: int) -> dict:
    """Both cells, one after the other, every n interleaved run by
    run."""
    with FifoLocalRunner(BlockStore(directory)) as fifo:
        oracle = {pattern: fifo.run([wordcount_job("solo", pattern)])
                  .results["solo"].output for pattern in PATTERNS}
    warm_store = BlockStore(directory)
    run_once(warm_store, len(PATTERNS))     # fills the derived views
    cells: dict[str, dict] = {"warm": {}, "cold": {}}
    samples: dict[tuple[str, int], list[float]] = {}
    for cell in cells:  # one cell after the other: a cold run between
        for _ in range(runs):   # two warm ones would cool the caches
            for n in RIDERS:
                store = warm_store if cell == "warm" else BlockStore(directory)
                cpu_ms, report = run_once(store, n)
                samples.setdefault((cell, n), []).append(cpu_ms)
                seen = counts(report, oracle)
                row = cells[cell].setdefault(f"n{n}", seen)
                if seen != {key: row[key] for key in seen}:
                    row["counts_stable"] = False
    for cell, rows in cells.items():
        for n in RIDERS:
            rows[f"n{n}"].update(cpu_summary(samples[cell, n]))
        solo = rows["n1"]["cpu_ms_median"]
        ten = rows["n10"]["cpu_ms_median"]
        rows["ratio_at_ten"] = ten / solo
        rows["marginal_cpu_ms_per_rider"] = (ten - solo) / 9
    return cells


def steady(directory: pathlib.Path, samples: int) -> dict:
    """The steady cell: one warm summing rider, run after run."""
    store = build_store(directory, STEADY_CORPUS_BYTES, STEADY_BLOCK_SIZE)
    with FifoLocalRunner(BlockStore(directory)) as fifo:
        oracle = fifo.run(make_jobs(1)).results["r0"].output
    runner = SharedScanRunner(store, ExecutionConfig(
        blocks_per_segment=STEADY_SEGMENT))
    runner.run(make_jobs(1))                # fills the derived views
    report = runner.run(make_jobs(1))
    row = {"waves": report.iterations,
           "logical_blocks_read": report.io.blocks_read,
           "physical_blocks_read": report.io.physical_blocks_read,
           "view_blocks_read": report.io.view_blocks_read,
           "outputs_equal_fifo": report.results["r0"].output == oracle}
    per_wave = []
    for _ in range(samples):
        started = time.process_time()
        for _ in range(STEADY_RUNS):
            runner.run(make_jobs(1))
        per_wave.append((time.process_time() - started) * 1e6
                        / (STEADY_RUNS * report.iterations))
    q1, median, q3 = statistics.quantiles(per_wave, n=4, method="inclusive")
    row.update(cpu_us_per_wave=median, cpu_us_per_wave_q1=q1,
               cpu_us_per_wave_q3=q3)
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus and few runs for CI")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    if args.smoke:
        corpus_bytes, block_size, runs, steady_samples = \
            256 << 10, 8 << 10, 3, 15
    else:
        corpus_bytes, block_size, runs, steady_samples = \
            4 << 20, 128 << 10, 15, 31

    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp) / "corpus"
        num_blocks = build_store(directory, corpus_bytes,
                                 block_size).num_blocks
        cells = bench(directory, runs)
        steady_row = steady(pathlib.Path(tmp) / "steady", steady_samples)

    rows = [row for cell in cells.values() for key, row in cell.items()
            if key.startswith("n")]
    checks = {
        "outputs_equal_fifo": all(row["outputs_equal_fifo"] for row in rows),
        "counts_stable": all(row.get("counts_stable", True) for row in rows),
        "every_visit_physical_or_view": all(
            row["logical_blocks_read"] == row["physical_blocks_read"]
            + row["view_blocks_read"] for row in rows),
        "one_lap_per_run": all(row["logical_blocks_read"] == num_blocks
                               for row in rows),
        "warm_loads_no_bytes": all(
            row["physical_blocks_read"] == 0 for row in cells["warm"].values()
            if isinstance(row, dict)),
        "cold_reads_each_block_once": all(
            row["physical_blocks_read"] == num_blocks
            for row in cells["cold"].values() if isinstance(row, dict)),
        "steady_loads_no_bytes": steady_row["physical_blocks_read"] == 0,
    }
    payload = {
        "benchmark": "bench_riders",
        "mode": "smoke" if args.smoke else "full",
        "host_cpus": os.cpu_count() or 1,
        "corpus_bytes": corpus_bytes,
        "num_blocks": num_blocks,
        "blocks_per_segment": BLOCKS_PER_SEGMENT,
        "runs": runs,
        **cells,
        "steady": steady_row,
        "steady_samples": steady_samples,
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
