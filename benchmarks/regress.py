"""Perf-regression gate: re-run benchmarks, compare against baselines.

Runs the seven payload-emitting benchmarks (``bench_cache``,
``bench_service``, ``bench_trace``, ``bench_localrt``, ``bench_shard``,
``bench_live``, ``bench_riders`` — the ``BENCHMARKS`` tuple below is
the list) and gates
each fresh ``BENCH_*.json`` against the committed baseline
with the default metric specs from :mod:`repro.obs.regress` — only
hardware-independent metrics (hit ratios, block counters, invariant
checks), never raw seconds.  Exits non-zero if any gated metric
regressed past its tolerance, which is what fails the CI job.

Baselines:

* ``--smoke`` compares against ``benchmarks/baselines/BENCH_*.smoke.json``
  (committed; regenerate with ``--rebaseline`` after an intentional
  perf-relevant change and commit the result);
* full mode compares against the ``BENCH_*.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/regress.py --smoke
    PYTHONPATH=src python benchmarks/regress.py --smoke --rebaseline
"""

from __future__ import annotations

import argparse
import pathlib
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.obs.regress import (      # noqa: E402
    compare,
    format_regression,
    load_payload,
    specs_for,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_DIR = ROOT / "benchmarks" / "baselines"

#: Benchmarks that emit a gateable payload.
BENCHMARKS = ("bench_cache", "bench_service", "bench_trace",
              "bench_localrt", "bench_shard", "bench_live", "bench_riders")


def baseline_path(name: str, smoke: bool) -> pathlib.Path:
    if smoke:
        return BASELINE_DIR / f"BENCH_{name.removeprefix('bench_')}.smoke.json"
    return ROOT / f"BENCH_{name.removeprefix('bench_')}.json"


def run_benchmark(name: str, out: pathlib.Path, smoke: bool) -> int:
    """Run one benchmark script as a subprocess, payload to ``out``."""
    cmd = [sys.executable, str(ROOT / "benchmarks" / f"{name}.py"),
           "--out", str(out)]
    if smoke:
        cmd.append("--smoke")
    completed = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    return completed.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small corpora + smoke baselines (CI mode)")
    parser.add_argument("--only", action="append", choices=BENCHMARKS,
                        help="gate only this benchmark (repeatable)")
    parser.add_argument("--rebaseline", action="store_true",
                        help="overwrite the baselines with fresh payloads "
                             "instead of gating")
    args = parser.parse_args(argv)
    names = tuple(args.only) if args.only else BENCHMARKS

    failures = []
    with tempfile.TemporaryDirectory(prefix="regress-") as tmp:
        for name in names:
            fresh = pathlib.Path(tmp) / f"{name}.json"
            code = run_benchmark(name, fresh, args.smoke)
            if code != 0 and not fresh.exists():
                print(f"regression gate: {name} — benchmark crashed "
                      f"before writing a payload (exit {code})")
                failures.append(name)
                continue
            if code != 0:
                # The benchmark's own checks are enforced by the
                # bench-smoke CI job; here we gate the payload's
                # metrics, which include the deterministic checks.
                print(f"note: {name} exited {code}; gating its payload "
                      f"anyway")
            base = baseline_path(name, args.smoke)
            if args.rebaseline:
                base.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(fresh, base)
                print(f"rebaselined {base.relative_to(ROOT)}")
                continue
            if not base.exists():
                print(f"regression gate: {name} — no baseline at "
                      f"{base.relative_to(ROOT)} (run --rebaseline)")
                failures.append(name)
                continue
            baseline = load_payload(base)
            current = load_payload(fresh)
            report = compare(name, baseline, current, specs_for(baseline))
            print(format_regression(report))
            if not report.ok:
                failures.append(name)

    if failures:
        print(f"\nREGRESSED: {', '.join(failures)}")
        return 1
    if not args.rebaseline:
        print("\nall benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
