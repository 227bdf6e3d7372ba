"""Perf-regression gate: compare a fresh benchmark payload to a baseline.

The benchmarks under ``benchmarks/`` each emit a ``BENCH_*.json``
payload.  This module holds the comparison engine: a
:class:`MetricSpec` names one metric (dotted path into the payload), a
direction and a tolerance; :func:`compare` evaluates a spec list
against a baseline/current payload pair and returns a
:class:`RegressionReport` that renders as a table and maps to a process
exit code.

Only *hardware-independent* metrics are gated — cache-hit ratios,
logical/physical block counts, invariant-check booleans.  Nothing
derived from wall-clock time is compared across runs, neither raw
seconds nor ratios of them (speedups, overhead fractions): CI machines
differ and drift, and a time-based gate is either flaky or vacuous.
The benchmarks that have a timing floor enforce it themselves and exit
non-zero (the ``bench-smoke`` CI job runs them).  Baselines live in ``benchmarks/baselines/`` (smoke mode) and
at the repo root (full mode); ``benchmarks/regress.py`` orchestrates
re-running the benchmarks and gating the result, and
``python -m repro.obs regress BASELINE CURRENT`` compares two existing
payloads.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

#: Comparison directions: current vs baseline.
_DIRECTIONS = ("le", "ge", "eq")


@dataclass(frozen=True)
class MetricSpec:
    """One gated metric.

    ``path`` is a dotted path into the payload (``fifo_rescan.hit_ratio``).
    ``direction`` says which way is *acceptable*: ``le`` — lower is
    better, current may not exceed baseline beyond tolerance; ``ge`` —
    higher is better; ``eq`` — must match within tolerance.  The allowed
    slack is ``max(rel_tol * |baseline|, abs_tol)``.  Non-required
    metrics are skipped when missing (smoke payloads omit some keys).
    """

    path: str
    direction: str = "eq"
    rel_tol: float = 0.0
    abs_tol: float = 0.0
    required: bool = True

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"direction must be one of {_DIRECTIONS}, "
                f"got {self.direction!r}")
        if self.rel_tol < 0 or self.abs_tol < 0:
            raise ValueError("tolerances must be non-negative")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one :class:`MetricSpec` evaluation."""

    path: str
    direction: str
    baseline: object
    current: object
    ok: bool
    skipped: bool
    detail: str

    def as_dict(self) -> dict[str, object]:
        """Plain-data view (JSON-friendly)."""
        return {
            "path": self.path,
            "direction": self.direction,
            "baseline": self.baseline,
            "current": self.current,
            "ok": self.ok,
            "skipped": self.skipped,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class RegressionReport:
    """All check results for one baseline/current pair."""

    name: str
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        """True when no evaluated metric regressed."""
        return all(result.ok for result in self.results)

    @property
    def regressions(self) -> tuple[CheckResult, ...]:
        """The failing checks only."""
        return tuple(r for r in self.results if not r.ok)

    def as_dict(self) -> dict[str, object]:
        """Plain-data view (JSON-friendly)."""
        return {
            "name": self.name,
            "ok": self.ok,
            "results": [result.as_dict() for result in self.results],
        }


def lookup(doc: Mapping[str, Any], path: str) -> object:
    """Resolve a dotted ``path`` in ``doc``; ``None`` when absent."""
    node: object = doc
    for part in path.split("."):
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    return node


def _evaluate(spec: MetricSpec, baseline: object,
              current: object) -> CheckResult:
    def result(ok: bool, skipped: bool, detail: str) -> CheckResult:
        return CheckResult(path=spec.path, direction=spec.direction,
                           baseline=baseline, current=current, ok=ok,
                           skipped=skipped, detail=detail)

    if baseline is None or current is None:
        side = "baseline" if baseline is None else "current"
        if spec.required:
            return result(False, False, f"missing in {side}")
        return result(True, True, f"skipped: missing in {side}")
    # Booleans (invariant checks) and strings ("skipped (...)" markers)
    # compare by identity/equality; tolerance does not apply.
    if isinstance(baseline, bool) or isinstance(current, bool) \
            or isinstance(baseline, str) or isinstance(current, str):
        if baseline == current:
            return result(True, False, "match")
        if isinstance(baseline, str) or isinstance(current, str):
            # A check skipped on one host and run on the other is a
            # host difference, not a regression — unless it now fails.
            if current is False:
                return result(False, False,
                              f"check failed (baseline {baseline!r})")
            return result(True, True,
                          f"skipped: non-comparable ({baseline!r} vs "
                          f"{current!r})")
        return result(False, False, f"{baseline!r} != {current!r}")
    if not isinstance(baseline, (int, float)) \
            or not isinstance(current, (int, float)):
        return result(False, False,
                      f"non-numeric values ({type(baseline).__name__} vs "
                      f"{type(current).__name__})")

    slack = max(spec.rel_tol * abs(float(baseline)), spec.abs_tol)
    delta = float(current) - float(baseline)
    if spec.direction == "le":
        ok = delta <= slack
    elif spec.direction == "ge":
        ok = -delta <= slack
    else:
        ok = abs(delta) <= slack
    detail = (f"delta={delta:+.6g} slack={slack:.6g}"
              if not ok or slack else
              f"delta={delta:+.6g}")
    return result(ok, False, detail)


def compare(name: str, baseline: Mapping[str, Any],
            current: Mapping[str, Any],
            specs: Sequence[MetricSpec]) -> RegressionReport:
    """Evaluate every spec; the report's ``ok`` is the gate verdict."""
    results = tuple(
        _evaluate(spec, lookup(baseline, spec.path),
                  lookup(current, spec.path))
        for spec in specs)
    return RegressionReport(name=name, results=results)


def format_regression(report: RegressionReport) -> str:
    """Aligned table rendering of a :class:`RegressionReport`."""
    lines = [f"regression gate: {report.name} — "
             f"{'OK' if report.ok else 'REGRESSED'}"]
    if not report.results:
        lines.append("  (no metrics gated)")
        return "\n".join(lines)
    width = max(len(result.path) for result in report.results)

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value)

    for result in report.results:
        status = "ok" if result.ok else "FAIL"
        if result.skipped:
            status = "skip"
        lines.append(
            f"  [{status:>4}] {result.path:<{width}} "
            f"{result.direction}  base={fmt(result.baseline)} "
            f"cur={fmt(result.current)}  {result.detail}")
    return "\n".join(lines)


# --------------------------------------------------------------- spec sets

#: Gated metrics per benchmark payload (``payload["benchmark"]`` key).
#: Counters that the runtime computes deterministically are pinned
#: exactly; wall-clock seconds, and every ratio of them, are
#: deliberately absent.
DEFAULT_SPECS: dict[str, tuple[MetricSpec, ...]] = {
    "bench_cache": (
        MetricSpec("checks.fifo_hit_ratio_ge_90pct"),
        MetricSpec("fifo_rescan.n_jobs"),
        MetricSpec("fifo_rescan.num_blocks"),
        MetricSpec("fifo_rescan.logical_blocks_read"),
        # No thread races the demand reads: the tier split is exact.
        MetricSpec("fifo_rescan.physical_blocks_read"),
        MetricSpec("fifo_rescan.view_blocks_read"),
        MetricSpec("fifo_rescan.hit_ratio", "ge", rel_tol=0.05),
    ),
    "bench_service": (
        MetricSpec("checks.all_accepted_jobs_terminal"),
        MetricSpec("checks.outputs_identical_to_batch"),
        MetricSpec("checks.sharing_ratio_gt_one"),
        MetricSpec("streaming.num_arrivals"),
        MetricSpec("streaming.num_blocks"),
        MetricSpec("streaming.iterations"),
        MetricSpec("streaming.blocks_read"),
        MetricSpec("streaming.virtual_art_blocks"),
        MetricSpec("streaming.sharing_ratio", "ge", rel_tol=0.01),
        MetricSpec("streaming.completed"),
        MetricSpec("streaming.rejected"),
        # fairness.* is wall-clock-derived and deliberately absent.
    ),
    "bench_localrt": (
        # checks.*_speedup_ge_5x and the *.wave_speedup /
        # *.single_job_speedup ratios are wall clock and deliberately
        # absent: bench_localrt enforces its own >=5x floor, and
        # map.kernel_mb_per_s in BENCHMARK.json is the tracked number.
        MetricSpec("checks.outputs_identical"),
        MetricSpec("checks.counters_identical"),
        MetricSpec("checks.logical_io_identical"),
        MetricSpec("wordcount.corpus_bytes"),
        MetricSpec("wordcount.num_blocks"),
        MetricSpec("wordcount.records"),
        MetricSpec("wordcount.output_records"),
        MetricSpec("wordcount.blocks_read"),
        MetricSpec("wordcount.wave_jobs"),
        MetricSpec("selection.corpus_bytes"),
        MetricSpec("selection.num_blocks"),
        MetricSpec("selection.records"),
        MetricSpec("selection.output_records"),
        MetricSpec("selection.blocks_read"),
        MetricSpec("selection.wave_jobs"),
        MetricSpec("selection.threshold"),
        # The selection wave's second lap is served from the store
        # handle's derived-view table (two views a block: the quantity
        # column and the row table): lookups, not wall clock.
        MetricSpec("selection.derived_hits"),
        MetricSpec("selection.derived_misses"),
        MetricSpec("selection.derived_admitted"),
    ),
    "bench_shard": (
        MetricSpec("checks.outputs_identical_fifo_s3"),
        MetricSpec("checks.outputs_identical_to_single_store"),
        MetricSpec("checks.outputs_identical_after_failover"),
        MetricSpec("checks.logical_io_identical_after_failover"),
        MetricSpec("checks.saving_matches_single_store"),
        MetricSpec("checks.fallback_reads_positive"),
        MetricSpec("sharded_scan.num_blocks"),
        MetricSpec("sharded_scan.num_shards"),
        MetricSpec("sharded_scan.replication"),
        MetricSpec("sharded_scan.iterations"),
        MetricSpec("sharded_scan.fifo_blocks_read"),
        MetricSpec("sharded_scan.s3_blocks_read"),
        MetricSpec("sharded_scan.s3_bytes_read"),
        MetricSpec("sharded_scan.saving"),
        MetricSpec("sharded_scan.saving_single_store"),
        MetricSpec("sharded_scan.balance.shard_00"),
        MetricSpec("sharded_scan.balance.shard_01"),
        MetricSpec("sharded_scan.balance.shard_02"),
        MetricSpec("sharded_scan.balance.shard_03"),
        MetricSpec("failover.replica_fallback_reads"),
        MetricSpec("failover.blocks_read"),
        MetricSpec("failover.bytes_read"),
        # *_seconds are wall clock and deliberately absent.
    ),
    "bench_live": (
        MetricSpec("checks.exposition_parses"),
        MetricSpec("checks.exposition_deterministic"),
        MetricSpec("checks.metrics_render_deterministic"),
        MetricSpec("checks.metrics_parse_roundtrip"),
        MetricSpec("checks.window_evicts_to_horizon"),
        MetricSpec("checks.windows_match_offline"),
        MetricSpec("checks.readyz_overload_flip"),
        MetricSpec("checks.readyz_recovers_after_drain"),
        MetricSpec("exposition.families"),
        MetricSpec("exposition.sample_lines"),
        MetricSpec("exposition.bytes"),
        MetricSpec("window.observations"),
        MetricSpec("window.count"),
        MetricSpec("window.p50"),
        MetricSpec("window.p95"),
        MetricSpec("window.p99"),
        MetricSpec("window.windowed_rate"),
        MetricSpec("replay.num_arrivals"),
        MetricSpec("replay.iterations"),
        MetricSpec("replay.completed"),
        MetricSpec("replay.rejected"),
        MetricSpec("replay.response_p50"),
        MetricSpec("replay.response_p95"),
        MetricSpec("replay.response_p99"),
        # *_seconds are wall clock and deliberately absent.
    ),
    "bench_trace": (
        MetricSpec("checks.traced_io_counters_identical"),
        MetricSpec("checks.traced_outputs_identical"),
        MetricSpec("traced_events", "ge"),
    ),
}


def load_payload(path: pathlib.Path | str) -> dict[str, Any]:
    """Read one ``BENCH_*.json`` payload."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object payload")
    return doc


def specs_for(payload: Mapping[str, Any]) -> tuple[MetricSpec, ...]:
    """The default spec set for a payload, keyed by its benchmark name."""
    name = str(payload.get("benchmark", ""))
    if name not in DEFAULT_SPECS:
        raise ValueError(
            f"no default metric specs for benchmark {name!r}; known: "
            f"{', '.join(sorted(DEFAULT_SPECS))}")
    return DEFAULT_SPECS[name]
