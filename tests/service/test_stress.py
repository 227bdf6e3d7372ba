"""Streaming-arrival stress test (the service's liveness contract).

Poisson submissions from multiple tenants are driven open-loop against a
live service running a strict admission cap and a bounded pending queue.
Asserted facts are order-independent (thread scheduling varies):

* liveness — every accepted job reaches a terminal state, nothing
  strands in PENDING/SCANNING after drain;
* accounting — per-tenant counters are internally consistent and the
  fairness report is computable;
* correctness — completed jobs' outputs are byte-identical to solo
  FIFO runs of the same jobs (the oracle shares no code with the scan).
"""

from repro.common.config import ExecutionConfig
from repro.localrt.jobs import wordcount_job
from repro.localrt.runners import FifoLocalRunner
from repro.localrt.storage import BlockStore
from repro.service.config import ServiceConfig
from repro.service.core import SchedulerService
from repro.service.driver import OpenLoopDriver
from repro.service.records import JobStatus
from repro.workloads.arrivals import poisson_streams
from repro.workloads.wordcount import DEFAULT_PATTERNS


def _pattern(event):
    return DEFAULT_PATTERNS[event.index % len(DEFAULT_PATTERNS)]


def _factory(event):
    return wordcount_job(f"{event.tenant}_j{event.index}", _pattern(event))


def test_streaming_poisson_under_strict_cap(store, tmp_path):
    events = poisson_streams({"t_a": 0.5, "t_b": 0.8}, 6, seed=7)
    config = ServiceConfig(
        execution=ExecutionConfig(blocks_per_segment=4),
        max_pending=3, overload_policy="reject",
        max_jobs_per_iteration=2, idle_poll_s=0.005)
    with SchedulerService(store, config) as service:
        driver = OpenLoopDriver(service, events, _factory, time_scale=0.02)
        report = driver.run()
        tickets = service.drain(timeout=120.0)
        fairness = service.fairness()
        accounts = service.accounts()
        live = dict(service.results())

    # Open-loop accounting: every arrival was either accepted or rejected.
    assert report.total == len(events) == 12
    assert len(report.submitted) >= 1

    # Liveness: everything accepted is terminal, nothing stranded.
    assert {t.job_id for t in tickets} == set(report.submitted)
    assert all(t.status.terminal for t in tickets)
    done = [t for t in tickets if t.status is JobStatus.DONE]
    assert done, "at least one job must complete under the cap"
    for ticket in done:
        assert ticket.covered_blocks == store.num_blocks
        assert ticket.result is not None

    # Per-tenant fairness is computable and the books balance.
    assert 0.0 < fairness.response_fairness <= 1.0
    assert 0.0 < fairness.throughput_fairness <= 1.0
    for tenant in ("t_a", "t_b"):
        acc = accounts[tenant]
        tenant_tickets = [t for t in tickets if t.tenant == tenant]
        assert acc.submitted == 6
        assert acc.in_flight == 0
        assert acc.completed == sum(
            1 for t in tenant_tickets if t.status is JobStatus.DONE)
        assert acc.rejected == sum(
            1 for jid, ten in report.rejected if ten == tenant)
        assert (acc.completed + acc.cancelled + acc.rejected
                + acc.failed) == acc.submitted

    # Byte-identical outputs vs solo FIFO runs of the completed set.
    done_ids = {t.job_id for t in done}
    fifo = FifoLocalRunner(BlockStore(tmp_path / "corpus")).run(
        [_factory(e) for e in events
         if f"{e.tenant}_j{e.index}" in done_ids])
    for ticket in done:
        assert live[ticket.job_id].output == \
            fifo.result(ticket.job_id).output


def test_backpressure_blocking_submitters_drain(store):
    """Block-policy overload: submitters wait for capacity and all
    arrivals eventually land (the scan drains faster than the timeout)."""
    events = poisson_streams({"t": 0.2}, 8, seed=3)
    config = ServiceConfig(
        execution=ExecutionConfig(blocks_per_segment=4),
        max_pending=1, overload_policy="block", block_timeout_s=60.0,
        idle_poll_s=0.005)
    with SchedulerService(store, config) as service:
        driver = OpenLoopDriver(service, events, _factory, time_scale=0.01)
        report = driver.run()
        tickets = service.drain(timeout=120.0)
    assert not report.rejected
    assert len(tickets) == len(events)
    assert all(t.status is JobStatus.DONE for t in tickets)
