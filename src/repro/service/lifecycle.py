"""The job lifecycle ledger: one transition table, one set of books.

A job is queued, aligned at the pointer, scanned and finished exactly
once (the paper's Job Queue Manager, Algorithm 1).  :data:`TRANSITIONS`
is that lifecycle as a literal table, and :meth:`Ledger.transition` is
the only code that moves a job along it — so it is also the only code
that writes an entry's status / timestamps / result / error, a
:class:`~repro.service.records.TenantAccount` field, the pending depth
and its gauge, a telemetry edge, or a ``service.*`` lifecycle trace
event.  A move that is not a key of the table raises; terminal states
have no outgoing key, so they absorb by construction.

``submitted`` counts every arrival the service answered, accepted or
turned away, which makes ``submitted == completed + cancelled +
rejected + failed + in_flight`` an identity per tenant in every book.
:func:`check_books` compares the books with each other.

The ledger owns no lock: every method runs under the owning service's
``_cond`` (``REPRO_RACECHECK=1`` verifies the writes).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from ..analysis.racecheck import race_checked, register_instance
from ..common.errors import ServiceError
from ..localrt.api import JobResult, LocalJob
from ..obs.live.telemetry import EDGE_NAMES, ServiceTelemetry
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from ..schedulers.s3.state import S3JobState
from .records import JobStatus, JobTicket, TenantAccount

if TYPE_CHECKING:
    from .core import SchedulerService
    from .driver import DriverReport


@race_checked(fields=("status", "admitted_at", "finished_at", "result",
                      "error"),
              guard="SchedulerService._cond")
@dataclass
class Entry:
    """Per-job record (ticket fields + live scan state).

    Mutable fields are guarded *cross-object* by the owning service's
    ``_cond`` — a guard the per-class static pass cannot see, hence the
    ``@race_checked`` instrumentation instead of ``# guarded-by``.
    """

    job: LocalJob
    tenant: str
    scan_state: S3JobState
    status: JobStatus
    submitted_at: float
    admitted_at: float | None = None
    finished_at: float | None = None
    result: JobResult | None = None
    error: str | None = None

    def ticket(self) -> JobTicket:
        return JobTicket(
            job_id=self.job.job_id,
            tenant=self.tenant,
            status=self.status,
            submitted_at=self.submitted_at,
            admitted_at=self.admitted_at,
            finished_at=self.finished_at,
            start_block=self.scan_state.start_block,
            covered_blocks=self.scan_state.covered,
            total_blocks=self.scan_state.total_blocks,
            result=self.result,
            error=self.error,
        )


@dataclass(frozen=True)
class Effects:
    """What one lifecycle move books."""

    #: The ``service.<verb>`` trace event the move emits.
    event: str
    #: ``TenantAccount`` counters (= telemetry edges) bumped by one.
    edges: tuple[str, ...]
    #: Change of the pending-queue depth and of ``in_flight``.
    pending: int = 0
    in_flight: int = 0


_PENDING, _SCANNING = JobStatus.PENDING, JobStatus.SCANNING
_CANCELLED = JobStatus.CANCELLED

#: Every legal move.  ``None`` is the door: an arrival that has no entry
#: yet is accepted (``→ PENDING``) or turned away (``→ REJECTED``, no
#: entry created).  A client cancel and a shutdown / core-failure abort
#: are the same ``→ CANCELLED`` move with a different ``error``.
TRANSITIONS: dict[tuple[JobStatus | None, JobStatus], Effects] = {
    (None, _PENDING): Effects(
        "service.submit", ("submitted",), pending=+1, in_flight=+1),
    (None, JobStatus.REJECTED): Effects(
        "service.reject", ("submitted", "rejected")),
    (_PENDING, _SCANNING): Effects(
        "service.admit", ("admitted",), pending=-1),
    (_SCANNING, JobStatus.DONE): Effects(
        "service.complete", ("completed",), in_flight=-1),
    (_PENDING, _CANCELLED): Effects(
        "service.cancel", ("cancelled",), pending=-1, in_flight=-1),
    (_SCANNING, _CANCELLED): Effects(
        "service.cancel", ("cancelled",), in_flight=-1),
}

#: How each edge reaches the telemetry hub; ``age`` = now − submitted_at.
_FEED: dict[str, Callable[[ServiceTelemetry, str, float], None]] = {
    "submitted": lambda hub, tenant, age: hub.record_submit(tenant),
    "rejected": lambda hub, tenant, age: hub.record_reject(tenant),
    "cancelled": lambda hub, tenant, age: hub.record_cancel(tenant),
    "admitted": lambda hub, tenant, age: hub.record_admit(tenant, age),
    "completed": lambda hub, tenant, age: hub.record_complete(tenant, age),
}


class Ledger:
    """The entry table, the tenant accounts and the pending depth."""

    def __init__(self, telemetry: ServiceTelemetry, tracer: Tracer,
                 metrics: MetricsRegistry, *,
                 max_pending: int | None = None) -> None:
        self.telemetry = telemetry
        self.tracer = tracer
        self.metrics = metrics
        self.max_pending = max_pending
        #: Every accepted job, in accept order.
        self.entries: dict[str, Entry] = {}
        self.accounts: dict[str, TenantAccount] = {}
        #: Accepted-but-unadmitted jobs, in all and per tenant (tenants
        #: with none are absent).
        self.pending = 0
        self.pending_by_tenant: dict[str, int] = {}
        register_instance(self, fields=("pending",),
                          guard="SchedulerService._cond", label="Ledger")

    @property
    def full(self) -> bool:
        """The pending queue sits at its bound (never, when unbounded)."""
        return (self.max_pending is not None
                and self.pending >= self.max_pending)

    def tickets(self) -> list[JobTicket]:
        """Snapshots of every accepted job, in accept order."""
        return [entry.ticket() for entry in self.entries.values()]

    def live(self) -> list[Entry]:
        """The entries that are not terminal yet."""
        return [entry for entry in self.entries.values()
                if not entry.status.terminal]

    def transition(self, entry: Entry | None, to: JobStatus, *, now: float,
                   job: LocalJob | None = None, tenant: str | None = None,
                   scan_state: S3JobState | None = None,
                   result: JobResult | None = None,
                   error: str | None = None, **detail: Any) -> None:
        """Move one job along :data:`TRANSITIONS` and book the move.

        ``entry`` is ``None`` for the two door moves, which name the
        arrival by ``job`` and ``tenant`` (``→ PENDING`` also takes the
        ``scan_state`` the scan core queued it under).  ``result`` /
        ``error`` are what a terminal move leaves on the entry;
        ``detail`` rides on the trace event.
        """
        origin = entry.status if entry is not None else None
        effects = TRANSITIONS.get((origin, to))
        if effects is None:
            raise ServiceError(
                f"illegal lifecycle move "
                f"{origin.value if origin else 'door'} -> {to.value}")
        if entry is not None:
            job, tenant = entry.job, entry.tenant
        assert job is not None and tenant is not None
        if to is _PENDING and job.job_id in self.entries:
            raise ServiceError(
                f"illegal lifecycle move: {job.job_id!r} is past the door")
        account = self.accounts.get(tenant)
        if account is None:
            account = self.accounts[tenant] = TenantAccount(tenant=tenant)
        age = 0.0
        if entry is not None:
            age = now - entry.submitted_at
            entry.status = to
            if to is _SCANNING:
                entry.admitted_at = now
            else:
                entry.finished_at = now
                entry.result = result
                entry.error = error
            if to is JobStatus.DONE and entry.admitted_at is not None:
                account.total_wait_s += entry.admitted_at - entry.submitted_at
                account.total_response_s += age
                detail["response_s"] = age
        elif to is _PENDING:
            assert scan_state is not None
            self.entries[job.job_id] = Entry(
                job=job, tenant=tenant, scan_state=scan_state, status=to,
                submitted_at=now)
        account.in_flight += effects.in_flight
        for edge in effects.edges:
            setattr(account, edge, getattr(account, edge) + 1)
            _FEED[edge](self.telemetry, tenant, age)
        if effects.pending:
            self.pending += effects.pending
            depth = self.pending_by_tenant.pop(tenant, 0) + effects.pending
            if depth:
                self.pending_by_tenant[tenant] = depth
            self.metrics.gauge(f"service.queue_depth.{tenant}").set(depth)
        if error is not None:
            detail["reason"] = error
        self.tracer.event(effects.event, subject=job.job_id, tenant=tenant,
                          queue_depth=self.pending, **detail)


def check_books(service: "SchedulerService",
                report: "DriverReport | None" = None) -> list[str]:
    """Every disagreement between the service's books (empty: balanced).

    Per tenant and edge the account must equal the telemetry total, the
    global telemetry totals the sum over tenants, the trace (when on)
    one ``service.*`` event per move, the queue depths and ``in_flight``
    the live tickets, and ``submitted`` the sum of every outcome plus
    ``in_flight``.  ``report`` adds the driver's own accepted / rejected
    counts.  Reads through the public API, so call it on a quiescent
    service: between steps, or after ``drain()`` / ``shutdown()``.
    """
    problems: list[str] = []

    def expect(what: str, got: object, want: object) -> None:
        if got != want:
            problems.append(f"{what}: {got} != {want}")

    accounts = service.accounts()
    windows = service.telemetry.snapshot()
    depths = service.queue_depths()
    live = [ticket for ticket in service.jobs()
            if not ticket.status.terminal]
    totals = {edge: sum(getattr(account, edge)
                        for account in accounts.values())
              for edge in EDGE_NAMES}
    for edge in EDGE_NAMES:
        expect(f"telemetry {edge}", windows["edges"][edge]["total"],
               totals[edge])
        for tenant, account in accounts.items():
            expect(f"telemetry {tenant}.{edge}",
                   windows["tenants"][tenant]["edges"][edge]["total"],
                   getattr(account, edge))
    for tenant, account in accounts.items():
        mine = [ticket for ticket in live if ticket.tenant == tenant]
        expect(f"{tenant}.in_flight", account.in_flight, len(mine))
        expect(f"{tenant} queue depth", depths.get(tenant, 0),
               sum(ticket.status is _PENDING for ticket in mine))
        expect(f"{tenant}.submitted", account.submitted,
               account.completed + account.cancelled + account.rejected
               + account.failed + account.in_flight)
    expect("readiness queue_depth", service.readiness()["queue_depth"],
           sum(depths.values()))
    accepted = totals["submitted"] - totals["rejected"]
    if service.tracer.enabled:
        seen = Counter(event.name for event in service.tracer.events())
        for event, want in (("service.submit", accepted),
                            ("service.reject", totals["rejected"]),
                            ("service.admit", totals["admitted"]),
                            ("service.complete", totals["completed"]),
                            ("service.cancel", totals["cancelled"])):
            expect(f"trace {event}", seen[event], want)
    if report is not None:
        expect("driver accepted", len(report.submitted), accepted)
        expect("driver rejected", len(report.rejected), totals["rejected"])
    return problems
