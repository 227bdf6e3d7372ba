#!/usr/bin/env python3
"""bench_e2e: five workloads, five end-to-end metrics, and a layer replay.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                  [--seconds S] [--trace [0|1]] [--out FILE]

Builds the workload's inputs, drives the public API of ``repro.service``
/ ``repro.localrt`` from one load-generator thread, checks every output
against a solo FIFO run, and prints every metric ``BENCHMARK.json`` names
with its unit.  Without ``--trace`` the five end-to-end metrics are
measured, tracing off: ``--seconds`` of load split over ``EPOCHS``
epochs, each with a set-up of its own, every metric the median of the
epochs' values after scaling to the reference host's speed
(``measure.SpeedProbe``).  With it the per-layer metrics are (one
window of half the length for the live rows, then the traced replay of
``layers.py``).  Without ``--workload`` every workload runs, each in a
process of its own so that peak RSS is per workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--out``
appends the full record (host, load, counts, metrics) as a JSON line —
the result-set format ``compare.py`` reads.  Exit status is non-zero
when an output did not match the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import live  # noqa: E402
import measure  # noqa: E402
import spec  # noqa: E402

from repro.common.clock import Stopwatch  # noqa: E402

#: Scratch space inside the checkout (stores, part files, traces).
WORK_ROOT = ROOT / ".bench_e2e"

#: An end-to-end run is this many epochs — set-up, ``--seconds / EPOCHS`` of
#: load on a system of its own, verification, tear-down — and every metric
#: is the median of the epochs' values (``peak_rss_mb``: the run's peak).
EPOCHS = 5


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def epoch_seed(seed: int, epoch: int) -> int:
    """The schedule seed of one epoch: distinct per (seed, epoch)."""
    return seed * EPOCHS + epoch


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> dict[str, object]:
    """Set up, measure and verify one workload; returns the full record."""
    workload = spec.BY_NAME[name]
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rig = None
    oracle = None
    setups: list[float] = []
    windows: list[live.Window] = []
    try:
        # The traced run takes one longer window for the live rows.
        epochs = 1 if trace else EPOCHS
        length = seconds / 2 if trace else seconds / EPOCHS
        for epoch in range(epochs):
            directory = work / f"store_{epoch}"
            probe = measure.SpeedProbe()
            watch = Stopwatch()
            rig = live.set_up(workload, directory)
            setups.append(watch.elapsed() * probe.stop())
            if oracle is None:
                oracle = live.oracle_outputs(workload, directory)
            windows.append(live.run_window(
                rig, epoch_seed(seed, epoch), length, oracle))
            rig.close()
            if not trace:
                shutil.rmtree(directory)
        correct = all(window.mismatched == 0 and window.verified > 0
                      for window in windows)
        if trace:
            values = windows[0].live_layers()
            replayed, matched = layers.traced_layers(
                workload, rig.directory, seed, work,
                WORK_ROOT / f"{name}.trace.json")
            values.update(replayed)
            correct = correct and matched
        else:
            measured = [window.end_to_end() for window in windows]
            values = {metric: statistics.median(epoch[metric]
                                                for epoch in measured)
                      for metric in measured[0]}
            values["setup_s"] = statistics.median(setups)
            values["peak_rss_mb"] = measure.peak_rss_mb()
    finally:
        if rig is not None:
            rig.close()
        shutil.rmtree(work, ignore_errors=True)

    contract = load_contract()
    listed = contract["per_layer" if trace else "end_to_end"]
    if {metric["name"] for metric in listed} != set(values):
        raise SystemExit("metrics measured and BENCHMARK.json disagree: "
                         f"{sorted(set(values) ^ {m['name'] for m in listed})}")
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "load": workload.load(), "map_workers": spec.MAP_WORKERS,
        "host": measure.host_record(ROOT),
        "speed_factors": [window.speed_factor for window in windows],
        "correct": correct,
        "attempted": sum(window.attempted for window in windows),
        "failed": sum(window.failed for window in windows),
        "refused": sum(window.refused for window in windows),
        "mismatched": sum(window.mismatched for window in windows),
        "verified_jobs": sum(window.verified_jobs for window in windows),
        "latency_samples": sum(len(window.latency_s) for window in windows),
        "raw_epochs": [window.raw_end_to_end() for window in windows],
        "metrics": {metric["name"]: {"value": values[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in listed},
    }


def print_record(record: dict[str, object]) -> None:
    host = record["host"]
    print(f"== {record['workload']}  seed={record['seed']} "
          f"seconds={record['seconds']} trace={int(record['trace'])}")
    print(f"   load: {record['load']}; map_workers={record['map_workers']}")
    print(f"   host: cpu_count={host['cpu_count']} affinity={host['affinity']} "
          f"python={host['python']} commit={host['commit']}")
    print(f"   operations: attempted={record['attempted']} "
          f"failed={record['failed']} (refused={record['refused']}, "
          f"output mismatch={record['mismatched']}); "
          f"verified jobs={record['verified_jobs']}; "
          f"latency samples={record['latency_samples']}")
    print("   host speed: reference / measured, per epoch = "
          + " ".join(f"{factor:.3f}" for factor in record["speed_factors"]))
    for name, metric in record["metrics"].items():
        print(f"   {name:<34} {metric['value']:>14.4f} {metric['unit']}")


def result_line(record: dict[str, object]) -> str:
    return json.dumps({key: record[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Every workload, one child process each; one combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.out is not None:
            command += ["--out", str(args.out)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               check=False)
        lines = child.stdout.splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(child.stdout, end="")
            return child.returncode or 1     # died before its result line
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            (f"{name}.{metric}", value)
            for metric, value in result["metrics"].items())
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1,
                        help="arrival schedule and pattern order")
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="measure the per-layer metrics instead")
    parser.add_argument("--out", type=pathlib.Path,
                        help="append the full record(s) to this JSON-lines "
                             "file (input of compare.py)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args, names)
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print_record(record)
    if args.out is not None:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(result_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
