"""Trace validation: structural invariants every legal run satisfies.

A simulation trace, whichever scheduler produced it (a built-in one or
a third-party scheduler plugged into the driver), must satisfy the
engine's contracts.
:func:`validate_trace` checks them over the tracer's instants, in record
order, and returns the violations — the harness's equivalent of ``fsck``:

1. timestamps are non-decreasing;
2. every task start has exactly one end (finish, fail, or killed), and
   ends never precede starts;
3. per-node concurrent occupancy never exceeds the configured slots,
   separately for map and reduce slots;
4. every submitted job completes at most once, and completion never
   precedes submission;
5. no task starts on a node inside one of its offline windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.config import ClusterConfig
from ..obs.tracer import Tracer

_STARTS = {"task.start.map": "map", "task.start.reduce": "reduce"}
_ENDS = {
    "task.finish.map": "map", "task.fail.map": "map",
    "task.killed.map": "map",
    "task.finish.reduce": "reduce", "task.fail.reduce": "reduce",
    "task.killed.reduce": "reduce",
}


@dataclass
class ValidationReport:
    """Outcome of one validation pass."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)

    def raise_if_invalid(self) -> None:
        if not self.ok:
            from ..common.errors import ExperimentError
            summary = "; ".join(self.violations[:5])
            raise ExperimentError(
                f"trace invalid ({len(self.violations)} violations): {summary}")


def validate_trace(tracer: Tracer,
                   cluster_config: ClusterConfig | None = None,
                   ) -> ValidationReport:
    """Check the structural invariants; slots are checked when a
    ``cluster_config`` is supplied."""
    report = ValidationReport()
    map_slots = cluster_config.map_slots_per_node if cluster_config else None
    reduce_slots = (cluster_config.reduce_slots_per_node
                    if cluster_config else None)

    last_time = float("-inf")
    open_attempts: dict[str, tuple[str, str]] = {}  # attempt -> (kind, node)
    node_busy: dict[tuple[str, str], int] = {}      # (node, kind) -> running
    submitted: dict[str, float] = {}
    completed: dict[str, float] = {}
    offline_since: dict[str, float] = {}

    for record in tracer.instants():
        if record.ts < last_time - 1e-9:
            report.add(f"time went backwards at {record.name} "
                       f"{record.subject} ({record.ts} < {last_time})")
        last_time = max(last_time, record.ts)

        if record.name == "job.submit":
            if record.subject in submitted:
                report.add(f"job {record.subject} submitted twice")
            submitted[record.subject] = record.ts
        elif record.name == "job.complete":
            if record.subject in completed:
                report.add(f"job {record.subject} completed twice")
            completed[record.subject] = record.ts
            if record.subject not in submitted:
                report.add(f"job {record.subject} completed without submit")
        elif record.name == "node.offline":
            offline_since[record.subject] = record.ts
        elif record.name == "node.online":
            offline_since.pop(record.subject, None)
        elif record.name in _STARTS:
            kind = _STARTS[record.name]
            node = record.args.get("node")
            if node is None:
                report.add(f"{record.subject}: start without node")
                continue
            if record.subject in open_attempts:
                report.add(f"attempt {record.subject} started twice")
            if node in offline_since:
                report.add(f"{record.subject} started on offline node {node}")
            open_attempts[record.subject] = (kind, node)
            key = (node, kind)
            node_busy[key] = node_busy.get(key, 0) + 1
            limit = map_slots if kind == "map" else reduce_slots
            if limit is not None and node_busy[key] > limit:
                report.add(f"{node}: {node_busy[key]} concurrent {kind} "
                           f"tasks exceed {limit} slots at t={record.ts}")
        elif record.name in _ENDS:
            kind = _ENDS[record.name]
            opened = open_attempts.pop(record.subject, None)
            if opened is None:
                report.add(f"end without start: {record.subject}")
                continue
            open_kind, node = opened
            if open_kind != kind:
                report.add(f"{record.subject}: started as {open_kind}, "
                           f"ended as {kind}")
            key = (node, open_kind)
            node_busy[key] = node_busy.get(key, 0) - 1
            if node_busy[key] < 0:
                report.add(f"{node}: negative occupancy for {open_kind}")

    for attempt in open_attempts:
        report.add(f"attempt never ended: {attempt}")
    for job, time in completed.items():
        if job in submitted and time < submitted[job] - 1e-9:
            report.add(f"job {job} completed before submission")
    for job in submitted:
        if job not in completed:
            report.add(f"job {job} never completed")
    return report
