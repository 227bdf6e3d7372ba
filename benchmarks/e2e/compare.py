#!/usr/bin/env python3
"""Compare two result sets of ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl [--same-code]

For every workload x end-to-end metric: the two medians, each side's
spread (distance between first and third quartile over its median), how
much worse B's median is than A's, and the bound ``BENCHMARK.json``
allows.  A row whose own spread exceeds its bound is reported as
``unresolved``, not as unchanged.  Exit status is non-zero when B is
worse than A by more than the bound on any row.

``--same-code`` is for two sets of runs of one commit, which must simply
agree: a difference beyond the bound in *either* direction fails, and so
does any difference in the layer counts that are exact by construction
(compared per workload and seed across the traced records of both sets).
"""

from __future__ import annotations

import argparse
import collections
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

#: Per-layer counts a deterministic replay must reproduce exactly.
EXACT_COUNTS = ("sched.iterations", "sched.blocks_read",
                "store.replica_fallback_reads", "shuffle.records_absorbed")


def load(path: pathlib.Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 runs)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def worsening(before: float, after: float, better: str) -> float:
    """Share of ``before`` by which ``after`` is worse (negative: better)."""
    change = (after - before) / before
    return change if better == "lower" else -change


def end_to_end_values(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = collections.defaultdict(list)
    for record in records:
        if not record["trace"]:
            for name, metric in record["metrics"].items():
                values[(record["workload"], name)].append(metric["value"])
    return values


def exact_counts(records: list[dict]) -> dict[tuple[str, int, str], float]:
    return {(record["workload"], record["seed"], name):
            record["metrics"][name]["value"]
            for record in records if record["trace"]
            for name in EXACT_COUNTS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("before", type=pathlib.Path)
    parser.add_argument("after", type=pathlib.Path)
    parser.add_argument("--same-code", action="store_true",
                        help="both sets ran one commit: fail on a difference "
                             "in either direction and on unequal exact counts")
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    before, after = load(args.before), load(args.after)
    values_a, values_b = end_to_end_values(before), end_to_end_values(after)

    failures = 0
    print(f"{'workload':<11} {'metric':<15} {'median A':>11} {'median B':>11} "
          f"{'spread A':>9} {'spread B':>9} {'B worse by':>11} {'bound':>6}")
    for workload in contract["workloads"]:
        for metric in contract["end_to_end"]:
            key = (workload["name"], metric["name"])
            if key not in values_a or key not in values_b:
                continue
            median_a = statistics.median(values_a[key])
            median_b = statistics.median(values_b[key])
            spread_a, spread_b = spread(values_a[key]), spread(values_b[key])
            worse = worsening(median_a, median_b, metric["better"])
            beyond = abs(worse) if args.same_code else worse
            if beyond > metric["bound"]:
                verdict = "DISAGREE" if args.same_code else "WORSE"
                failures += 1
            elif max(spread_a, spread_b) > metric["bound"]:
                verdict = "unresolved (spread > bound)"
            else:
                verdict = "ok"
            print(f"{key[0]:<11} {key[1]:<15} {median_a:>11.4f} "
                  f"{median_b:>11.4f} {spread_a:>8.1%} {spread_b:>8.1%} "
                  f"{worse:>+10.1%} {metric['bound']:>6.0%}  {verdict}")

    counts_a, counts_b = exact_counts(before), exact_counts(after)
    for key in sorted(counts_a.keys() & counts_b.keys()):
        if counts_a[key] != counts_b[key]:
            workload, seed, name = key
            print(f"{workload} seed {seed}: {name} {counts_a[key]} != "
                  f"{counts_b[key]}")
            failures += args.same_code
    shared = len(counts_a.keys() & counts_b.keys())
    print(f"exact counts compared: {shared}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
