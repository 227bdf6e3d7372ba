"""Set-up, the FIFO oracle and the three load generators.

Everything here drives the public API of ``repro.service`` /
``repro.localrt`` from one thread.  Outputs are checked against the
oracle outside the timed window: the service keeps every result until
the window ends; ``sel_batch`` (10 k output records per batch) checks
each batch as it completes and leaves that check out of the busy time.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import pathlib
import time

import measure
import spec

from repro.common.config import ExecutionConfig
from repro.common.errors import AdmissionRejected, ServiceError
from repro.localrt import (
    BlockStoreProtocol,
    FifoLocalRunner,
    Record,
    ShardedBlockStore,
    SharedScanRunner,
)
from repro.service import JobStatus, SchedulerService


#: How long a drain or a single wait may take before the jobs still
#: live are counted as failed.
DRAIN_TIMEOUT_S = 60.0

Oracle = dict[str, list[Record]]

#: A job that joins the circular scan mid-file folds its per-block float
#: partial sums in rotated order, so an aggregate equals the FIFO run's
#: only to rounding: 32 additions of doubles, far inside 1e-9 relative.
AGGREGATE_REL_TOL = 1e-9


@dataclasses.dataclass
class Rig:
    """One set-up system under test: store + service (or batch runner)."""

    workload: spec.Workload
    directory: pathlib.Path
    store: BlockStoreProtocol
    clock: measure.OriginClock
    service: SchedulerService | None = None
    runner: SharedScanRunner | None = None

    def close(self) -> None:
        """Stop the service / runner (the caller owns the directory)."""
        if self.service is not None:
            self.service.shutdown()
        if self.runner is not None:
            self.runner.close()


def batch_jobs(label: str, count: int = len(spec.BATCH_DEFINITIONS)):
    """The first ``count`` jobs of a ``sel_batch`` batch, staggered one
    iteration apart: ``(jobs, arrival_iterations, definitions)``."""
    definitions = spec.BATCH_DEFINITIONS[:count]
    jobs = [spec.make_job(definition, f"{label}_{slot}")
            for slot, definition in enumerate(definitions)]
    arrivals = {job.job_id: slot for slot, job in enumerate(jobs)}
    return jobs, arrivals, definitions


def set_up(workload: spec.Workload, directory: pathlib.Path) -> Rig:
    """Corpus, store, service/runner, and four warm-up jobs drained."""
    store = spec.create_store(workload, directory)
    rig = Rig(workload, directory, store, measure.OriginClock())
    if workload.loop == "batch":
        rig.runner = SharedScanRunner(store, workload.execution(),
                                      reader=workload.reader())
        jobs, arrivals, _ = batch_jobs("warm", spec.WARMUP_JOBS)
        rig.runner.run(jobs, arrivals)
        return rig
    rig.service = SchedulerService(store, workload.service_config(),
                                   clock=rig.clock).start()
    warm = [rig.service.submit(spec.make_job(spec.PATTERNS[slot],
                                             f"warm_{slot}"))
            for slot in range(spec.WARMUP_JOBS)]
    for job_id in warm:
        rig.service.wait_for(job_id, timeout=DRAIN_TIMEOUT_S)
    return rig


def oracle_outputs(workload: spec.Workload,
                   directory: pathlib.Path) -> Oracle:
    """One solo FIFO run per distinct job definition, fresh store handle."""
    outputs: Oracle = {}
    for definition in workload.definitions:
        runner = FifoLocalRunner(spec.open_fresh(workload, directory),
                                 ExecutionConfig(), reader=workload.reader())
        report = runner.run([spec.make_job(definition, "oracle")])
        outputs[definition] = report.result("oracle").output
    return outputs


def matches_oracle(definition: str, output: list[Record],
                   oracle: Oracle) -> bool:
    """Exact equality with the solo FIFO output (see AGGREGATE_REL_TOL)."""
    expected = oracle[definition]
    if definition != "agg":
        return output == expected
    return (len(output) == len(expected)
            and all(key == want_key
                    and math.isclose(value, want, rel_tol=AGGREGATE_REL_TOL)
                    for (key, value), (want_key, want)
                    in zip(output, expected)))


@dataclasses.dataclass
class Window:
    """What one measured window observed (times in seconds)."""

    jobs_per_operation: int = 1
    open_loop: bool = False
    attempted: int = 0               # operations
    refused: int = 0                 # operations refused by admission
    mismatched: int = 0              # operations whose output != oracle
    verified: int = 0                # operations DONE with a verified output
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    rss_growth_mb: float = 0.0
    blocks_read: int = 0             # logical, during the window
    num_blocks: int = 0
    latency_s: list[float] = dataclasses.field(default_factory=list)
    submit_s: list[float] = dataclasses.field(default_factory=list)
    queue_wait_s: list[float] = dataclasses.field(default_factory=list)
    lag_s: list[float] = dataclasses.field(default_factory=list)
    #: Reference-host time / this window's time (measure.SpeedProbe).
    speed_factor: float = 1.0

    @property
    def failed(self) -> int:
        return self.attempted - self.verified

    @property
    def verified_jobs(self) -> int:
        return self.verified * self.jobs_per_operation

    def raw_end_to_end(self) -> dict[str, float]:
        """The end-to-end metrics as this host's clocks read them."""
        jobs = max(self.verified_jobs, 1)
        return {
            # No verified job leaves the service window without an end.
            "jobs_per_s": (self.verified_jobs / self.wall_s
                           if self.verified_jobs else 0.0),
            "latency_p50_ms": 1e3 * measure.percentile(self.latency_s, 50),
            "cpu_ms_per_job": 1e3 * self.cpu_s / jobs,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def end_to_end(self) -> dict[str, float]:
        """The same on the reference host: times scaled by the window's
        ``speed_factor``; throughput too where the system, not the
        schedule, sets it (an open loop completes what was offered)."""
        values = self.raw_end_to_end()
        values["latency_p50_ms"] *= self.speed_factor
        values["cpu_ms_per_job"] *= self.speed_factor
        if not self.open_loop:
            values["jobs_per_s"] /= self.speed_factor
        return values

    def live_layers(self) -> dict[str, float]:
        scanned = self.verified_jobs * self.num_blocks
        return {
            "service.submit_ms_p50":
                1e3 * measure.percentile(self.submit_s, 50),
            "service.submit_ms_p95":
                1e3 * measure.percentile(self.submit_s, 95),
            "service.queue_wait_ms_p50":
                1e3 * measure.percentile(self.queue_wait_s, 50),
            "service.latency_p95_ms":
                1e3 * measure.percentile(self.latency_s, 95),
            "service.latency_p99_ms":
                1e3 * measure.percentile(self.latency_s, 99),
            "service.latency_samples": len(self.latency_s),
            "service.generator_lag_ms_p95":
                1e3 * measure.percentile(self.lag_s, 95),
            "service.refused": self.refused,
            "service.rss_growth_mb": self.rss_growth_mb,
            "sched.sharing_ratio": scanned / max(self.blocks_read, 1),
        }


class _Meter:
    """Resource readings around a window (CPU, RSS, logical reads)."""

    def __init__(self, rig: Rig, window: Window) -> None:
        self._rig = rig
        self._window = window
        window.jobs_per_operation = rig.workload.jobs_per_operation
        window.open_loop = rig.workload.loop == "open"
        window.num_blocks = rig.store.num_blocks
        self._blocks = rig.store.logical_blocks_read()
        self._rss = measure.current_rss_mb()
        self._probe = measure.SpeedProbe()
        self._cpu = measure.cpu_seconds()

    def stop(self) -> None:
        window = self._window
        window.speed_factor = self._probe.stop()
        window.cpu_s = measure.cpu_seconds() - self._cpu
        window.peak_rss_mb = measure.peak_rss_mb()
        window.rss_growth_mb = measure.current_rss_mb() - self._rss
        window.blocks_read = (self._rig.store.logical_blocks_read()
                              - self._blocks)


def _verify_service(rig: Rig, window: Window, oracle: Oracle,
                    due: dict[str, tuple[str, float]]) -> None:
    """Check every accepted job's ticket; fill latency and wall time.

    ``due`` maps job id to (definition, due time).  The window runs from
    the first due time to the last completion.
    """
    assert rig.service is not None
    tickets = {ticket.job_id: ticket for ticket in rig.service.jobs()}
    last_finish = 0.0
    for job_id, (definition, due_at) in due.items():
        ticket = tickets.get(job_id)
        if ticket is None or ticket.status is not JobStatus.DONE:
            continue                 # refused, failed, cancelled or stuck
        assert ticket.result is not None and ticket.finished_at is not None
        if not matches_oracle(definition, ticket.result.output, oracle):
            window.mismatched += 1
            continue
        window.verified += 1
        window.latency_s.append(ticket.finished_at - due_at)
        if ticket.wait_s is not None:
            window.queue_wait_s.append(ticket.wait_s)
        last_finish = max(last_finish, ticket.finished_at)
    first_due = min(due_at for _, due_at in due.values())
    window.wall_s = last_finish - first_due


def run_closed(rig: Rig, seed: int, seconds: float,
               oracle: Oracle) -> Window:
    """Keep ``in_flight`` jobs in the service: wait for the oldest, then
    submit a replacement, until the window's jobs are out; then drain.

    The window is ``rate_per_s x seconds`` jobs — ``seconds`` long at the
    seed's throughput on the reference host — not a fixed time: the
    service keeps every result, so a window that ran until the clock said
    stop would retain more jobs, and report a higher peak RSS, whenever
    the host was in a fast spell.  Twice ``seconds`` is the time limit.
    """
    service, clock, workload = rig.service, rig.clock, rig.workload
    assert service is not None
    window = Window()
    due: dict[str, tuple[str, float]] = {}
    pending: collections.deque[str] = collections.deque()
    cycle = spec.definition_cycle(workload, seed)
    budget = max(workload.in_flight, round(workload.rate_per_s * seconds))

    def submit(due_at: float) -> None:
        index = window.attempted
        definition = cycle[index % len(cycle)]
        job = spec.make_job(definition, f"job_{index}")
        started = clock.relative()
        service.submit(job)
        window.submit_s.append(clock.relative() - started)
        window.lag_s.append(started - due_at)
        window.attempted += 1
        due[job.job_id] = (definition, due_at)
        pending.append(job.job_id)

    meter = _Meter(rig, window)
    start = clock.relative()
    for _ in range(workload.in_flight):
        # One job per iteration: jobs admitted at one segment boundary
        # finish in one iteration and are replaced together for ever
        # after, so submitting them all at once lets a thread race in
        # the first millisecond pick the run's regime (one clump of 8,
        # or 1 + 7, ...; CPU per job differs by 25 % between them).
        submit(clock.relative())
        boundary = service.iterations
        while service.iterations == boundary:
            time.sleep(0.001)
    while pending:
        try:
            service.wait_for(pending.popleft(), timeout=DRAIN_TIMEOUT_S)
        except ServiceError:
            break                    # the rest stay non-terminal: failed
        now = clock.relative()
        if window.attempted < budget and now - start < 2 * seconds:
            submit(now)
    meter.stop()
    _verify_service(rig, window, oracle, due)
    return window


def run_open(rig: Rig, seed: int, seconds: float,
             oracle: Oracle) -> Window:
    """Submit the seed's Poisson schedule on time, whatever the service
    is doing; latency counts from the due time, not the actual submit."""
    service, clock, workload = rig.service, rig.clock, rig.workload
    assert service is not None
    window = Window()
    due: dict[str, tuple[str, float]] = {}
    events = spec.open_schedule(workload, seed, seconds)
    cycle = spec.definition_cycle(workload, seed)

    meter = _Meter(rig, window)
    start = clock.relative()
    for index, event in enumerate(events):
        definition = cycle[index % len(cycle)]
        job = spec.make_job(definition, f"job_{index}")
        due_at = start + event.time
        delay = due_at - clock.relative()
        if delay > 0:
            time.sleep(delay)
        started = clock.relative()
        try:
            service.submit(job, tenant=event.tenant)
        except AdmissionRejected:
            window.refused += 1
        window.submit_s.append(clock.relative() - started)
        window.lag_s.append(started - due_at)
        window.attempted += 1
        due[job.job_id] = (definition, due_at)
    try:
        service.drain(timeout=DRAIN_TIMEOUT_S)
    except ServiceError:
        pass                         # jobs still live are counted failed
    meter.stop()
    _verify_service(rig, window, oracle, due)
    return window


def run_batches(rig: Rig, seconds: float, oracle: Oracle) -> Window:
    """Run 8-job batches back to back for ``seconds`` of busy time; shard
    1 is down for the middle third.  One operation is one batch."""
    runner, clock, store = rig.runner, rig.clock, rig.store
    assert runner is not None and isinstance(store, ShardedBlockStore)
    window = Window()
    meter = _Meter(rig, window)
    cpu_s = 0.0
    shard_down = False
    ready_at = clock.relative()
    while window.wall_s < seconds:
        outage = seconds / 3 <= window.wall_s < seconds * 2 / 3
        if outage != shard_down:
            (store.fail_shard if outage else store.restore_shard)(1)
            shard_down = outage
        cpu_before = measure.cpu_seconds()
        started = clock.relative()
        jobs, arrivals, definitions = batch_jobs(f"b{window.attempted}")
        built = clock.relative()
        report = runner.run(jobs, arrivals)
        finished = clock.relative()
        cpu_s += measure.cpu_seconds() - cpu_before
        window.attempted += 1
        window.wall_s += finished - started
        window.submit_s.append(built - started)
        window.lag_s.append(started - ready_at)
        if all(matches_oracle(definition, report.result(job.job_id).output,
                              oracle)
               for job, definition in zip(jobs, definitions)):
            window.verified += 1
            window.latency_s.append(finished - started)
        else:
            window.mismatched += 1
        del report                   # 10 k records; keep RSS about the system
        ready_at = clock.relative()
    if shard_down:
        store.restore_shard(1)
    meter.stop()
    window.cpu_s = cpu_s
    return window


def run_window(rig: Rig, seed: int, seconds: float,
               oracle: Oracle) -> Window:
    if rig.workload.loop == "closed":
        return run_closed(rig, seed, seconds, oracle)
    if rig.workload.loop == "open":
        return run_open(rig, seed, seconds, oracle)
    return run_batches(rig, seconds, oracle)
