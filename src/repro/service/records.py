"""Job tickets and per-tenant accounting for the scheduler service.

The service is multi-tenant: every submission carries a tenant id, and
the service keeps one :class:`TenantAccount` per tenant with admission
counts and response/wait-time sums.  Fairness across tenants is
summarised with **Jain's fairness index** over per-tenant mean response
times (1.0 = perfectly even; 1/n = one tenant gets everything), the
standard scalar used by schedulers that balance wait times.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from ..analysis.racecheck import race_checked
from ..localrt.api import JobResult


class JobStatus(enum.Enum):
    """Lifecycle of one submitted job inside the service.

    ``PENDING`` — accepted, waiting at the segment boundary for
    admission; ``SCANNING`` — admitted into the live scan loop;
    ``DONE`` — scan complete, reduce ran, result available;
    ``CANCELLED`` — detached before completion (by the client or at
    shutdown); ``REJECTED`` — refused by the overload policy;
    ``FAILED`` — an executor error terminated the job.
    """

    PENDING = "pending"
    SCANNING = "scanning"
    DONE = "done"
    CANCELLED = "cancelled"
    REJECTED = "rejected"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self in _TERMINAL


_TERMINAL = frozenset({JobStatus.DONE, JobStatus.CANCELLED,
                       JobStatus.REJECTED, JobStatus.FAILED})


@dataclass(frozen=True)
class JobTicket:
    """Immutable status snapshot returned by ``SchedulerService.status``."""

    job_id: str
    tenant: str
    status: JobStatus
    submitted_at: float
    #: When the job was admitted into the scan loop (``None`` while
    #: pending / if it never was).
    admitted_at: float | None = None
    #: When the job reached a terminal state.
    finished_at: float | None = None
    #: Segment-aligned block index its scan started at (mid-scan
    #: admissions start at the pointer, the paper's core trick).
    start_block: int | None = None
    #: Scan progress in blocks.
    covered_blocks: int = 0
    total_blocks: int = 0
    #: Final output, for ``DONE`` jobs.
    result: JobResult | None = None
    #: Failure / cancellation detail, when terminal without a result.
    error: str | None = None

    @property
    def wait_s(self) -> float | None:
        """Submission-to-admission latency (``None`` until admitted)."""
        if self.admitted_at is None:
            return None
        return self.admitted_at - self.submitted_at

    @property
    def response_s(self) -> float | None:
        """Submission-to-terminal latency (``None`` while live)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at


@race_checked(fields=("submitted", "admitted", "rejected", "cancelled",
                      "completed", "failed", "total_wait_s",
                      "total_response_s", "in_flight"),
              guard="SchedulerService._cond")
@dataclass
class TenantAccount:
    """Mutable accounting of one tenant's traffic.

    Guarded cross-object by the owning service's ``_cond`` (verified at
    runtime by ``REPRO_RACECHECK=1``); the snapshot copies that
    ``SchedulerService.accounts`` hands out are never shared.
    """

    tenant: str
    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    cancelled: int = 0
    completed: int = 0
    failed: int = 0
    #: Sum of completed jobs' submission->admission waits.
    total_wait_s: float = 0.0
    #: Sum of completed jobs' submission->completion responses.
    total_response_s: float = 0.0
    #: Jobs currently pending or scanning (the live queue-depth gauge).
    in_flight: int = 0

    @property
    def mean_wait_s(self) -> float:
        return self.total_wait_s / self.completed if self.completed else 0.0

    @property
    def mean_response_s(self) -> float:
        return (self.total_response_s / self.completed
                if self.completed else 0.0)

    def as_dict(self) -> dict[str, object]:
        return {
            "tenant": self.tenant,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "cancelled": self.cancelled,
            "completed": self.completed,
            "failed": self.failed,
            "mean_wait_s": self.mean_wait_s,
            "mean_response_s": self.mean_response_s,
            "in_flight": self.in_flight,
        }


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index of non-negative allocations.

    ``(sum x)^2 / (n * sum x^2)``; 1.0 when all equal, ``1/n`` when one
    value dominates.  An empty or all-zero sequence is vacuously fair.

    Computed on the values divided by their maximum (the index is
    scale-free), so squares neither overflow nor vanish, and clamped to
    its mathematical range ``[1/n, 1]``: rounding may not report more
    than perfect fairness — one tenant is exactly 1.0.
    """
    xs = [float(v) for v in values]
    if not xs or all(x == 0.0 for x in xs):
        return 1.0
    if any(x < 0 for x in xs):
        raise ValueError(f"allocations must be non-negative, got {xs}")
    peak = max(xs)
    scaled = [x / peak for x in xs]
    total = sum(scaled)
    index = total * total / (len(xs) * sum(x * x for x in scaled))
    return min(1.0, max(1.0 / len(xs), index))


@dataclass(frozen=True)
class FairnessReport:
    """Cross-tenant fairness summary derived from the tenant accounts."""

    accounts: tuple[TenantAccount, ...]
    #: Jain index over per-tenant mean response times of completed jobs
    #: (tenants with no completions are excluded).
    response_fairness: float
    #: Jain index over per-tenant completed-job counts.
    throughput_fairness: float

    def format_table(self) -> str:
        lines = [
            f"{'tenant':<12} {'sub':>5} {'done':>5} {'rej':>5} {'can':>5} "
            f"{'wait s':>8} {'resp s':>8}",
        ]
        for acc in self.accounts:
            lines.append(
                f"{acc.tenant:<12} {acc.submitted:>5d} {acc.completed:>5d} "
                f"{acc.rejected:>5d} {acc.cancelled:>5d} "
                f"{acc.mean_wait_s:>8.3f} {acc.mean_response_s:>8.3f}")
        lines.append(
            f"Jain fairness: response={self.response_fairness:.3f} "
            f"throughput={self.throughput_fairness:.3f}")
        return "\n".join(lines)

    def as_dict(self) -> dict[str, object]:
        return {
            "tenants": [acc.as_dict() for acc in self.accounts],
            "response_fairness": self.response_fairness,
            "throughput_fairness": self.throughput_fairness,
        }


def fairness_report(accounts: Sequence[TenantAccount]) -> FairnessReport:
    """Compute the cross-tenant fairness summary."""
    ordered = tuple(sorted(accounts, key=lambda acc: acc.tenant))
    with_completions = [acc for acc in ordered if acc.completed]
    return FairnessReport(
        accounts=ordered,
        response_fairness=jain_index(
            [acc.mean_response_s for acc in with_completions]),
        throughput_fairness=jain_index(
            [float(acc.completed) for acc in ordered if acc.submitted]),
    )
