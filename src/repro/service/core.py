"""The long-running scheduler service: a live S3 shared scan behind an API.

:class:`SchedulerService` is a daemon: ``submit`` / ``status`` /
``cancel`` / ``drain`` are first-class operations on a *running* scan,
and a job submitted while an iteration is in flight joins the circular
scan at the current segment pointer (the paper's mid-scan admission,
Section IV-B).

Architecture (one paragraph): the service is the **live front-end** of
the one shared-scan core, :class:`~repro.localrt.live.SharedScanCore`
(the batch front-end is :class:`~repro.localrt.runners.
SharedScanRunner`).  The core owns the scan — the
:class:`~repro.schedulers.s3.scanloop.ScanLoop` the simulator
validates, so admission, alignment and the per-iteration admission cap
are literally that scheduler — plus the riders' run states; it starts
no thread.  This module keeps the thread, the condition variable, the
bounded pending queue's overload policy
(``ServiceConfig.max_pending`` / ``overload_policy``) and the read-only
reports; every job-state move and every book it touches goes through
:meth:`repro.service.lifecycle.Ledger.transition`.  A single **core
thread** (or ``step()``) drives iterations: it *plans* a wave under the
condition variable (scheduling state), then *runs* it and *finishes*
its scan-complete jobs outside the lock, so no public call blocks while
a map wave or a reduce runs.  A fault on either driver takes the one
``_core_failed_locked`` path: every live job ends ``CANCELLED``.

Observability: the ledger's ``service.*`` lifecycle events, ``s3.align``
events at mid-scan admissions (same shape the simulator emits) and
``s3.iteration`` spans with per-wave ``io.wave`` deltas from the core —
so scan-sharing attribution and the trace analyzer work unchanged on
service traces.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterator

from ..analysis.lockgraph import ordered_lock
from ..analysis.racecheck import register_instance
from ..common.clock import Clock, monotonic_clock
from ..common.errors import AdmissionRejected, ServiceError
from ..localrt.api import BlockStoreProtocol, JobResult, LocalJob
from ..localrt.live import SharedScanCore, Wave
from ..localrt.records import RecordReader
from ..obs.live.slo import SLOStatus
from ..obs.live.telemetry import ServiceTelemetry
from ..obs.metrics import MetricsRegistry
from ..obs.runtime import resolve_tracer
from ..obs.tracer import Tracer
from .config import ServiceConfig
from .lifecycle import Entry, Ledger
from .records import (
    FairnessReport,
    JobStatus,
    JobTicket,
    TenantAccount,
    fairness_report,
)

#: Version of the :meth:`SchedulerService.snapshot` shape.  Bump on any
#: key addition/removal/rename so ``/status`` consumers (dashboard,
#: golden tests) detect drift instead of silently misreading.
SNAPSHOT_SCHEMA_VERSION = 4

#: How long ``shutdown`` waits for the core thread.
_JOIN_TIMEOUT_S = 30.0


def _relative_clock(clock: Clock, t0: float) -> Callable[[], float]:
    """Seconds on ``clock`` since ``t0``."""
    return lambda: clock() - t0


@dataclass
class _Scheduled:
    """An iteration-paced arrival (deterministic open-loop driving)."""

    at_iteration: int
    job: LocalJob
    tenant: str
    priority: int


class SchedulerService:
    """Live multi-tenant shared-scan scheduler over one block store.

    Usage::

        with SchedulerService(store, ServiceConfig(...)) as svc:
            job_id = svc.submit(wordcount_job("wc0", r"s.*"), tenant="a")
            ...                      # jobs join the scan mid-flight
            svc.drain()              # block until everything is terminal
            print(svc.status(job_id).result.output)

    ``start`` / ``shutdown`` are explicit for non-context-manager use.
    Thread-safe: every public method may be called from any thread.
    """

    def __init__(self, store: BlockStoreProtocol,
                 config: ServiceConfig | None = None, *,
                 reader: RecordReader | None = None,
                 tracer: Tracer | None = None,
                 clock: Clock | None = None) -> None:
        self.config = config or ServiceConfig()
        self.store = store
        self._clock = clock if clock is not None else monotonic_clock()
        self._t0 = self._clock()
        # A closure, not a bound method: the telemetry holds it, and a
        # reference back to the service would keep a shut-down service
        # (and its store) alive until the cyclic collector runs.
        self._now = _relative_clock(self._clock, self._t0)
        self.tracer = resolve_tracer(
            tracer, self.config.execution.trace.enabled, "service")
        self.metrics = MetricsRegistry()
        #: Slot occupancy: jobs riding the current scan iteration (bounded
        #: by the S3 admission cap when one is configured).
        self._slots_active = self.metrics.gauge("service.slots_active")
        # Live windows run on the service's relative clock, so step-mode
        # replays under a FakeClock produce bit-stable window stats.
        self.telemetry = ServiceTelemetry(
            horizon_s=self.config.window_horizon_s,
            slo=self.config.slo,
            clock=self._now,
            max_samples=self.config.window_max_samples)
        self._cond = threading.Condition(
            ordered_lock("SchedulerService._cond"))  # type: ignore[arg-type]
        # The shared-scan core.  add_job / cancel / has_work / plan touch
        # scheduling state and are only called under _cond; run / finish
        # touch none and are called outside it.  ``reader`` is the record
        # format of the store's data (default: text lines).
        self._scan = SharedScanCore(store, self.config.execution,
                                    reader=reader, tracer=self.tracer)
        #: The lifecycle books; every job-state move is one
        #: ``_ledger.transition`` call.
        self._ledger = Ledger(  # guarded-by: _cond
            self.telemetry, self.tracer, self.metrics,
            max_pending=self.config.max_pending)
        self._scheduled: list[_Scheduled] = []  # guarded-by: _cond
        self._iteration = 0  # guarded-by: _cond
        self._running = False  # guarded-by: _cond
        self._stopping = False  # guarded-by: _cond
        self._draining = False  # guarded-by: _cond
        self._core_error: BaseException | None = None  # guarded-by: _cond
        # Written once by start(); joined by shutdown().  Not _cond-
        # guarded: the write happens-before any reader via start()'s
        # lock release.
        self._thread: threading.Thread | None = None
        register_instance(
            self,
            fields=("_scheduled", "_iteration", "_running", "_stopping",
                    "_draining", "_core_error"),
            guard="SchedulerService._cond", label="SchedulerService")

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "SchedulerService":
        """Start the core scan thread (idempotent while running)."""
        with self._cond:
            if self._running:
                return self
            if self._thread is not None:
                raise ServiceError("service cannot be restarted after "
                                   "shutdown; construct a new one")
            self._running = True
        self._thread = threading.Thread(
            target=self._run_core, name="s3-service-core", daemon=True)
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop the core thread; live jobs are cancelled (idempotent).

        Call :meth:`drain` first for a graceful stop.  Pending jobs that
        were never admitted and scanning jobs alike end ``CANCELLED``
        with an explanatory error — shutdown must not strand a waiting
        entry in a non-terminal state.
        """
        with self._cond:
            if self._thread is None:
                # Never started (or step-mode): no core thread will run
                # the abort path, so terminal-ise live jobs here.
                self._abort_live_locked("service shut down before completion")
                self._running = False
            self._stopping = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=_JOIN_TIMEOUT_S)
            if self._thread.is_alive():  # pragma: no cover - defensive
                raise ServiceError("service core thread failed to stop")

    def __enter__(self) -> "SchedulerService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    @property
    def running(self) -> bool:
        with self._cond:
            return self._running

    # ------------------------------------------------------------------- API
    def submit(self, job: LocalJob, *, tenant: str | None = None,
               priority: int = 0) -> str:
        """Submit a job for execution; returns its id immediately.

        The job joins the shared scan at the next iteration boundary —
        mid-scan, if a scan is running.  Over the pending bound the
        overload policy applies: ``"reject"`` raises
        :class:`~repro.common.errors.AdmissionRejected` now, ``"block"``
        waits up to ``block_timeout_s`` for capacity first.
        """
        tenant = tenant or self.config.default_tenant
        with self._cond:
            self._ensure_accepting()
            if not self._await_capacity_locked():
                depth = self._ledger.pending
                self._reject_locked(job, tenant, "pending queue full")
                raise AdmissionRejected(
                    f"{job.job_id}: pending queue full "
                    f"({depth}/{self.config.max_pending}) under policy "
                    f"{self.config.overload_policy!r}",
                    tenant=tenant, queue_depth=depth)
            return self._accept_locked(job, tenant, priority)

    def submit_at_iteration(self, job: LocalJob, at_iteration: int, *,
                            tenant: str | None = None,
                            priority: int = 0) -> str:
        """Schedule a submission for when the scan reaches an iteration.

        The deterministic open-loop mode: arrivals paced in iteration
        index instead of wall time, released by the core thread itself,
        so benchmarks and regression gates get bit-stable admission
        patterns.  An id that is already a job or already scheduled is
        refused here, like a duplicate ``submit``.  The overload bound
        still applies at release time: a released job over the bound (or
        whose id was taken in the meantime) is booked as a rejection for
        its tenant and creates no entry.
        """
        if at_iteration < 0:
            raise ServiceError(
                f"{job.job_id}: at_iteration must be >= 0, got {at_iteration}")
        tenant = tenant or self.config.default_tenant
        with self._cond:
            self._ensure_accepting()
            self._refuse_duplicate_locked(job.job_id, scheduled=True)
            self._scheduled.append(_Scheduled(
                at_iteration=at_iteration, job=job, tenant=tenant,
                priority=priority))
            self._cond.notify_all()
            return job.job_id

    def cancel(self, job_id: str) -> bool:
        """Detach a job from the scan; True when the cancel took effect.

        Pending jobs are removed from the admission queue; scanning jobs
        are detached from the live loop at the current iteration
        boundary (blocks already scanned for them are discarded).  A job
        whose scan already completed — reduce running or done — is past
        cancellation and returns False, as do unknown ids and jobs
        already terminal.
        """
        with self._cond:
            entry = self._ledger.entries.get(job_id)
            if entry is None or entry.status.terminal:
                return False
            if not self._scan.cancel(job_id):
                # Scan finished; its reduce is imminent or in flight.
                return False
            self._ledger.transition(entry, JobStatus.CANCELLED,
                                    now=self._now(),
                                    error="cancelled by client")
            self._cond.notify_all()
            return True

    def status(self, job_id: str) -> JobTicket:
        """Immutable snapshot of one job's lifecycle state."""
        with self._cond:
            return self._entry_locked(job_id).ticket()

    def jobs(self) -> list[JobTicket]:
        """Snapshots of every job the service has accepted, in submit order."""
        with self._cond:
            return self._ledger.tickets()

    def wait_for(self, job_id: str,
                 timeout: float | None = None) -> JobTicket:
        """Block until a job reaches a terminal state (or timeout)."""
        with self._cond:
            entry = self._entry_locked(job_id)
            if not self._wait_until_locked(
                    lambda: entry.status.terminal, timeout):
                raise ServiceError(f"timed out waiting for job {job_id!r}")
            return entry.ticket()

    def drain(self, timeout: float | None = None) -> list[JobTicket]:
        """Complete all outstanding work, then return the final tickets.

        While draining, new submissions are refused (``ServiceError``);
        jobs already accepted — including capped ones still waiting for
        admission — run to completion, so drain never strands a waiting
        entry.  Raises on timeout.
        """
        with self._cond:
            self._draining = True
            self._cond.notify_all()
            try:
                if not self._wait_until_locked(
                        lambda: not (self._scheduled or self._ledger.live()),
                        timeout):
                    raise ServiceError("drain timed out")
                return self._ledger.tickets()
            finally:
                self._draining = False

    def queue_depths(self) -> dict[str, int]:
        """Live pending-queue depth per tenant."""
        with self._cond:
            return dict(self._ledger.pending_by_tenant)

    def fairness(self) -> FairnessReport:
        """Cross-tenant fairness summary (Jain index over ART)."""
        with self._cond:
            return fairness_report(list(self._ledger.accounts.values()))

    def readiness(self) -> dict[str, object]:
        """Live readiness verdict for the ``/readyz`` endpoint.

        Ready ⇔ the core is healthy (no core error, not stopping, and —
        when a core thread was ever started — still alive; a step-mode
        service with no thread counts as healthy), the service is
        accepting submissions (not draining), and the pending queue sits
        below the overload bound.  The same verdict a load balancer
        would act on: a 503 here means "stop sending me work", which is
        exactly what a full pending queue under a strict cap implies.
        """
        with self._cond:
            core_alive = (self._core_error is None
                          and not self._stopping
                          and (self._thread is None
                               or self._thread.is_alive()))
            accepting = (core_alive and not self._draining)
            overloaded = self._ledger.full
            return {
                "ready": core_alive and accepting and not overloaded,
                "core_alive": core_alive,
                "accepting": accepting,
                "overloaded": overloaded,
                "queue_depth": self._ledger.pending,
                "max_pending": self.config.max_pending,
                "draining": self._draining,
            }

    def slo_report(self) -> tuple[SLOStatus, ...]:
        """Per-tenant SLO statuses (tenant-sorted) from the live windows."""
        return self.telemetry.slo_statuses()

    def tenants_report(self) -> dict[str, object]:
        """Per-tenant live view: accounts, queue depths, windows, SLOs.

        The ``/tenants`` endpoint body: everything an operator needs to
        answer "who is slow and who is starving" without a trace dump —
        per-tenant window percentiles, SLO burn, and the cross-tenant
        Jain fairness indices.
        """
        accounts = self.accounts()
        depths = self.queue_depths()
        windows = {tenant: record.as_dict()
                   for tenant, record in self.telemetry.tenants().items()}
        report = self.fairness()
        tenants = {
            tenant: {
                "account": account.as_dict(),
                "queue_depth": depths.get(tenant, 0),
                "telemetry": windows.get(tenant),
            }
            for tenant, account in sorted(accounts.items())
        }
        return {
            "tenants": tenants,
            "fairness": {
                "response_fairness": report.response_fairness,
                "throughput_fairness": report.throughput_fairness,
            },
            "slo": [status.as_dict() for status in self.slo_report()],
        }

    def accounts(self) -> dict[str, TenantAccount]:
        """Snapshot of the per-tenant accounting records."""
        with self._cond:
            return {name: TenantAccount(**vars(acc))
                    for name, acc in self._ledger.accounts.items()}

    @property
    def iterations(self) -> int:
        """Iterations the live scan has completed so far."""
        with self._cond:
            return self._iteration

    @property
    def executor_metrics(self) -> MetricsRegistry:
        """The scan core's registry (``io.*`` counters, wave stats)."""
        return self._scan.metrics

    def step(self) -> bool:
        """Advance the scan by one iteration, synchronously.

        The deterministic single-threaded mode: no core thread, no
        sleeps — submit (or ``submit_at_iteration``), then call ``step``
        until it returns ``False`` (no work left).  Exactly the same
        scheduling and execution code paths as the threaded core; used
        by unit tests and the regression benchmark so admission patterns
        and I/O counts are bit-stable — and the same failure path: a
        fault kills the service as it kills the core thread (every live
        job ``CANCELLED``), then re-raises.  Must not be mixed with a
        running core thread.
        """
        with self._cond:
            if self._running:
                raise ServiceError(
                    "step() drives the scan inline; it cannot be mixed "
                    "with a running core thread")
            self._raise_if_dead_locked()
            try:
                self._release_scheduled_locked()
                wave = self._plan_locked()
            except BaseException as exc:
                self._core_failed_locked(exc)
                raise
            if wave is None:
                return bool(self._scheduled) or self._scan.has_work()
        try:
            self._execute_wave(wave)
        except BaseException as exc:
            with self._cond:
                self._core_failed_locked(exc)
            raise
        return True

    # ------------------------------------------------------ internal helpers
    def _ensure_accepting(self) -> None:
        # Submissions before start() are legal: they queue until the
        # core thread starts (or until step() drives the scan inline).
        self._raise_if_dead_locked()
        if self._stopping:
            raise ServiceError("service is shutting down")
        if self._draining:
            raise ServiceError("service is draining; resubmit afterwards")

    def _raise_if_dead_locked(self) -> None:
        if self._core_error is not None:
            raise ServiceError(
                f"service core failed: {self._core_error!r}")

    def _wait_until_locked(self, done: Callable[[], bool],
                           timeout: float | None) -> bool:
        """Wait on the condition until ``done()``; False once ``timeout``
        has passed.  Raises if the core dies with ``done()`` still false.
        """
        deadline = None if timeout is None else self._clock() + timeout
        while not done():
            self._raise_if_dead_locked()
            wait = self.config.idle_poll_s
            if deadline is not None:
                wait = min(wait, deadline - self._clock())
                if wait <= 0:
                    return False
            self._cond.wait(wait)
        return True

    def _await_capacity_locked(self) -> bool:
        """True when the pending queue has room (blocking if configured)."""
        ledger = self._ledger
        if ledger.full and self.config.overload_policy == "block":
            self._wait_until_locked(
                lambda: (not ledger.full or not self._running
                         or self._stopping),
                self.config.block_timeout_s)
        return not ledger.full

    def _entry_locked(self, job_id: str) -> Entry:
        entry = self._ledger.entries.get(job_id)
        if entry is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return entry

    def _refuse_duplicate_locked(self, job_id: str, *,
                                 scheduled: bool) -> None:
        if job_id in self._ledger.entries or (scheduled and any(
                item.job.job_id == job_id for item in self._scheduled)):
            raise ServiceError(
                f"duplicate job id {job_id!r}; ids are unique for the "
                "lifetime of the service")

    def _accept_locked(self, job: LocalJob, tenant: str,
                       priority: int) -> str:
        self._refuse_duplicate_locked(job.job_id, scheduled=False)
        now = self._now()
        scan_state = self._scan.add_job(job, priority=priority, arrival=now)
        self._ledger.transition(None, JobStatus.PENDING, now=now, job=job,
                                tenant=tenant, scan_state=scan_state,
                                priority=priority)
        self._cond.notify_all()
        return job.job_id

    def _reject_locked(self, job: LocalJob, tenant: str, why: str) -> None:
        self._ledger.transition(None, JobStatus.REJECTED, now=self._now(),
                                job=job, tenant=tenant, error=why)

    # -------------------------------------------------------------- core loop
    def _run_core(self) -> None:
        try:
            while True:
                wave: Wave | None = None
                with self._cond:
                    while wave is None:
                        if self._stopping:
                            self._abort_live_locked(
                                "service shut down before completion")
                            self._running = False
                            self._cond.notify_all()
                            return
                        self._release_scheduled_locked()
                        wave = self._plan_locked()
                        if wave is None:
                            self._cond.wait(self.config.idle_poll_s)
                self._execute_wave(wave)
        except BaseException as exc:  # the service must not die silently
            with self._cond:
                self._core_failed_locked(exc)

    def _core_failed_locked(self, exc: BaseException) -> None:
        """The one failure path of both drivers (thread and ``step``)."""
        self._core_error = exc
        self._abort_live_locked(f"service core failed: {exc!r}")
        self._running = False
        self._cond.notify_all()

    def _release_scheduled_locked(self) -> None:
        """Feed due iteration-paced arrivals through the admit path."""
        if not self._scheduled:
            return
        if not self._scan.has_work():
            # Idle: jump the iteration counter to the next arrival so
            # scheduled submissions cannot deadlock an empty loop.
            self._iteration = max(
                self._iteration,
                min(item.at_iteration for item in self._scheduled))
        due = [item for item in self._scheduled
               if item.at_iteration <= self._iteration]
        if not due:
            return
        self._scheduled = [item for item in self._scheduled
                           if item.at_iteration > self._iteration]
        self._cond.notify_all()  # drain waits for _scheduled to empty
        for item in due:
            if item.job.job_id in self._ledger.entries:
                # Taken by a direct submit since it was scheduled.
                self._reject_locked(item.job, item.tenant, "duplicate job id")
            elif self._ledger.full:
                self._reject_locked(item.job, item.tenant,
                                    "pending queue full")
            else:
                self._accept_locked(item.job, item.tenant, item.priority)

    def _plan_locked(self) -> Wave | None:
        """Plan the next wave and book its admissions (scheduling state)."""
        wave = self._scan.plan(
            self._iteration, max_jobs=self.config.max_jobs_per_iteration)
        slots = len(wave.riders) if wave is not None else 0
        if slots != self._slots_active.value:  # the planner is its one writer
            self._slots_active.set(slots)
        if wave is None or not wave.admitted:
            return wave
        # An admission frees pending capacity a blocked submit waits on.
        self._cond.notify_all()
        now = self._now()
        traced = self.tracer.enabled
        for job_id in wave.admitted:
            self._ledger.transition(
                self._ledger.entries[job_id], JobStatus.SCANNING, now=now,
                start_block=wave.pointer, iteration=self._iteration)
            if traced:
                # Sub-job alignment, same event shape as the simulator:
                # the job's scan starts at the segment boundary the
                # pointer sat on.
                self.tracer.event("s3.align", subject=job_id,
                                  start_block=wave.pointer,
                                  iteration=f"iter_{self._iteration}")
        return wave

    def _execute_wave(self, wave: Wave) -> None:
        """Run one wave's map phase + finishing reduces (unlocked)."""
        self._scan.run(wave)
        results: list[tuple[Entry, JobResult]] = []
        if wave.finishing:
            with self._cond:
                entries = self._ledger.entries
                # A step-mode shutdown may have cancelled a rider meanwhile.
                finishing = [
                    (entries[state.job.job_id], state)
                    for state in wave.finishing
                    if entries[state.job.job_id].status is JobStatus.SCANNING]
            # Reduce outside the lock: shuffle/sort/reduce is CPU work.
            results = [(entry, self._scan.finish(state, wave.index))
                       for entry, state in finishing]
        with self._cond:
            if results:
                now = self._now()
                for entry, result in results:
                    self._ledger.transition(entry, JobStatus.DONE, now=now,
                                            result=result,
                                            iteration=wave.index)
                self._cond.notify_all()
            self._iteration += 1

    def _abort_live_locked(self, reason: str) -> None:
        """Terminal-ise every live job at shutdown/failure.

        The state-audit guarantee: no entry is left PENDING/SCANNING
        (stranded) and the scan loop keeps no detached state —
        ``has_work()`` is false afterwards.
        """
        now = self._now()
        for entry in self._ledger.live():
            self._scan.cancel(entry.job.job_id)
            self._ledger.transition(entry, JobStatus.CANCELLED, now=now,
                                    error=reason)
        for item in self._scheduled:
            self._reject_locked(item.job, item.tenant, reason)
        self._scheduled.clear()

    # --------------------------------------------------------------- reports
    def results(self) -> Iterator[tuple[str, JobResult]]:
        """(job_id, result) for every completed job, in submit order."""
        with self._cond:
            snapshot = [(job_id, entry.result)
                        for job_id, entry in self._ledger.entries.items()
                        if entry.result is not None]
        yield from snapshot

    def snapshot(self) -> dict[str, object]:
        """JSON-friendly dump: jobs, tenants, fairness, service metrics.

        ``schema_version`` (:data:`SNAPSHOT_SCHEMA_VERSION`) pins the
        shape; consumers should check it before digging into the keys.
        """
        with self._cond:
            jobs = {job_id: {
                "tenant": entry.tenant,
                "status": entry.status.value,
                "start_block": entry.scan_state.start_block,
                "covered_blocks": entry.scan_state.covered,
                "error": entry.error,
            } for job_id, entry in self._ledger.entries.items()}
            accounts = [acc.as_dict()
                        for acc in self._ledger.accounts.values()]
            iterations = self._iteration
        report = self.fairness()
        return {
            "schema_version": SNAPSHOT_SCHEMA_VERSION,
            "iterations": iterations,
            "blocks_read": self._scan.blocks_read,
            "derived": self.store.derived.stats(),
            "jobs": jobs,
            "tenants": accounts,
            "fairness": report.as_dict(),
            "metrics": self.metrics.snapshot(),
            "telemetry": self.telemetry.snapshot(),
            "readiness": self.readiness(),
        }
