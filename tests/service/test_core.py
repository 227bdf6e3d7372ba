"""SchedulerService core: lifecycle, admission, cancel, overload, audit.

Deterministic tests drive the scan with ``step()`` (no core thread);
threaded tests use the real core loop with generous timeouts and assert
only order-independent facts.
"""

import gc
import weakref

import pytest

from repro.common.config import ExecutionConfig, TraceConfig
from repro.common.errors import AdmissionRejected, ExecutionError, ServiceError
from repro.localrt.jobs import selection_job, wordcount_job
from repro.localrt.runners import FifoLocalRunner
from repro.localrt.storage import BlockStore
from repro.service.config import ServiceConfig
from repro.service.core import SchedulerService
from repro.service.records import JobStatus

from .conftest import assert_books_balance


def make_service(store, **kwargs):
    kwargs.setdefault("execution", ExecutionConfig(blocks_per_segment=4))
    kwargs.setdefault("idle_poll_s", 0.005)
    return SchedulerService(store, ServiceConfig(**kwargs))


def run_to_completion(service):
    while service.step():
        pass


# ------------------------------------------------------- deterministic mode

def test_submit_step_complete(store):
    service = make_service(store)
    job_id = service.submit(wordcount_job("wc", r"alpha"), tenant="t")
    assert service.status(job_id).status is JobStatus.PENDING
    run_to_completion(service)
    ticket = service.status(job_id)
    assert ticket.status is JobStatus.DONE
    assert ticket.start_block == 0
    assert ticket.covered_blocks == store.num_blocks
    assert ticket.result is not None and ticket.result.output
    assert ticket.wait_s is not None and ticket.response_s is not None
    service.shutdown()


def test_mid_scan_admission_joins_at_pointer(store):
    service = make_service(store)
    service.submit(wordcount_job("first", r"alpha"))
    service.step()
    service.step()  # pointer now at 8
    late = service.submit(wordcount_job("late", r"beta"))
    run_to_completion(service)
    ticket = service.status(late)
    assert ticket.status is JobStatus.DONE
    # The paper's alignment: the late job started mid-file, at the
    # segment boundary the pointer had reached.
    assert ticket.start_block == 8
    assert ticket.covered_blocks == store.num_blocks
    service.shutdown()


def test_results_byte_identical_with_batch(store, tmp_path):
    """The contract: sharing a scan never changes a job's answer — every
    output equals a solo FIFO run's, byte for byte."""
    patterns = {"wc_a": r"alpha", "wc_b": r"beta", "wc_c": r"gamma"}
    service = make_service(store)
    for i, (job_id, pattern) in enumerate(patterns.items()):
        service.submit_at_iteration(wordcount_job(job_id, pattern), i,
                                    tenant=f"t{i % 2}")
    run_to_completion(service)
    live = dict(service.results())
    service.shutdown()
    fifo = FifoLocalRunner(BlockStore(tmp_path / "corpus")).run(
        [wordcount_job(job_id, pattern)
         for job_id, pattern in patterns.items()])
    for job_id in patterns:
        assert live[job_id].output == fifo.result(job_id).output


def test_cancel_pending_job(store):
    service = make_service(store, max_jobs_per_iteration=1)
    keep = service.submit(wordcount_job("keep", r"alpha"))
    service.step()  # "keep" admitted; cap holds the next one out
    held = service.submit(wordcount_job("held", r"beta"), tenant="t2")
    assert service.status(held).status is JobStatus.PENDING
    assert service.cancel(held) is True
    assert service.status(held).status is JobStatus.CANCELLED
    assert service.queue_depths() == {}
    run_to_completion(service)
    assert service.status(keep).status is JobStatus.DONE
    accounts = service.accounts()
    assert accounts["t2"].cancelled == 1 and accounts["t2"].in_flight == 0
    service.shutdown()


def test_cancel_scanning_job_detaches(store):
    service = make_service(store)
    victim = service.submit(wordcount_job("victim", r"alpha"))
    other = service.submit(wordcount_job("other", r"beta"))
    service.step()  # both scanning
    assert service.cancel(victim) is True
    ticket = service.status(victim)
    assert ticket.status is JobStatus.CANCELLED
    assert ticket.result is None and ticket.error
    run_to_completion(service)
    assert service.status(other).status is JobStatus.DONE
    service.shutdown()


def test_cancel_after_scan_done_is_too_late(store):
    service = make_service(store)
    job_id = service.submit(wordcount_job("wc", r"alpha"))
    run_to_completion(service)
    assert service.cancel(job_id) is False
    assert service.cancel("ghost") is False
    assert service.status(job_id).status is JobStatus.DONE
    service.shutdown()


def test_duplicate_and_unknown_ids(store):
    service = make_service(store)
    service.submit(wordcount_job("wc", r"alpha"))
    with pytest.raises(ServiceError, match="duplicate"):
        service.submit(wordcount_job("wc", r"beta"))
    with pytest.raises(ServiceError, match="unknown"):
        service.status("ghost")
    service.shutdown()


def test_overload_reject_policy(store):
    service = make_service(store, max_pending=2)
    service.submit(wordcount_job("a", r"a"), tenant="t")
    service.submit(wordcount_job("b", r"b"), tenant="t")
    with pytest.raises(AdmissionRejected) as excinfo:
        service.submit(wordcount_job("c", r"c"), tenant="t")
    assert excinfo.value.tenant == "t"
    assert excinfo.value.queue_depth == 2
    accounts = service.accounts()
    assert accounts["t"].submitted == 3 and accounts["t"].rejected == 1
    assert service.telemetry.edges["rejected"].total() == 1
    # Rejected submissions leave no entry behind; the id is reusable.
    service.step()  # drain the pending queue into the scan
    service.submit(wordcount_job("c", r"c"), tenant="t")
    run_to_completion(service)
    assert service.status("c").status is JobStatus.DONE
    service.shutdown()


def test_overload_block_policy_times_out(store):
    service = make_service(store, max_pending=1, overload_policy="block",
                           block_timeout_s=0.05)
    service.submit(wordcount_job("a", r"a"))
    with pytest.raises(AdmissionRejected):
        service.submit(wordcount_job("b", r"b"))
    service.shutdown()


def test_scheduled_arrival_over_bound_is_recorded_rejected(store):
    service = make_service(store, max_pending=1)
    service.submit_at_iteration(wordcount_job("a", r"a"), 0, tenant="t")
    service.submit_at_iteration(wordcount_job("b", r"b"), 0, tenant="t")
    run_to_completion(service)
    assert service.status("a").status is JobStatus.DONE
    accounts = service.accounts()
    assert accounts["t"].rejected == 1
    # The rejected arrival never became an entry; only "a" exists.
    with pytest.raises(ServiceError, match="unknown"):
        service.status("b")
    service.shutdown()


def assert_rejections(service, expected):
    """The accounts carry ``expected`` rejections per tenant, and every
    other book (telemetry, trace, queue depths) agrees with them."""
    assert {tenant: account.rejected
            for tenant, account in service.accounts().items()} == expected
    assert_books_balance(service)


def traced_service(store, **kwargs):
    return make_service(store, execution=ExecutionConfig(
        blocks_per_segment=4, trace=TraceConfig(enabled=True)), **kwargs)


def test_rejection_at_shutdown_is_booked_like_any_other(store):
    """A scheduled arrival that shutdown turns away is a rejection in
    every book, not only in the tenant account."""
    service = traced_service(store)
    service.submit(wordcount_job("a", r"a"), tenant="t")
    service.submit_at_iteration(wordcount_job("late", r"b"), 50, tenant="u")
    service.step()
    service.shutdown()
    assert_rejections(service, {"t": 0, "u": 1})
    accounts = service.accounts()
    assert accounts["u"].submitted == 1 and accounts["u"].in_flight == 0


def test_rejection_at_release_and_at_submit_are_booked_alike(store):
    service = traced_service(store, max_pending=1)
    service.submit_at_iteration(wordcount_job("a", r"a"), 0, tenant="t")
    service.submit_at_iteration(wordcount_job("b", r"b"), 0, tenant="u")
    service.step()  # releases both: "a" accepted, "b" over the bound
    service.submit(wordcount_job("c", r"c"), tenant="t")
    with pytest.raises(AdmissionRejected):
        service.submit(wordcount_job("d", r"d"), tenant="t")
    assert_rejections(service, {"t": 1, "u": 1})
    # A refused duplicate id is an error, not a submission: the books
    # still balance (submitted == every outcome + in flight).
    service.step()  # "c" joins the scan: the queue has room again
    with pytest.raises(ServiceError, match="duplicate"):
        service.submit(wordcount_job("a", r"x"), tenant="t")
    run_to_completion(service)
    service.shutdown()
    for account in service.accounts().values():
        assert account.submitted == (account.completed + account.cancelled
                                     + account.rejected + account.failed)


def test_queue_depth_count_returns_to_empty(store):
    """The per-tenant pending count moves with accept / admit / cancel /
    abort and is empty again whichever way a job left the queue."""
    service = make_service(store, max_pending=2, max_jobs_per_iteration=1)
    service.submit(wordcount_job("run", r"a"), tenant="t")
    service.step()  # "run" scanning; the cap holds later arrivals pending
    held = service.submit(wordcount_job("held", r"b"), tenant="t")
    other = service.submit(wordcount_job("other", r"c"), tenant="u")
    assert service.queue_depths() == {"t": 1, "u": 1}
    assert service.metrics.gauge("service.queue_depth.u").value == 1
    # Reject at release: the queue is full, the arrival never counts.
    service.submit_at_iteration(wordcount_job("over", r"d"), 0, tenant="v")
    service.step()
    assert service.queue_depths() == {"t": 1, "u": 1}
    # Cancel while pending.
    assert service.cancel(held) is True
    assert service.queue_depths() == {"u": 1}
    assert service.metrics.gauge("service.queue_depth.t").value == 0
    # Shutdown aborts the rest.
    service.shutdown()
    assert service.status(other).status is JobStatus.CANCELLED
    assert service.queue_depths() == {}
    assert service.readiness()["queue_depth"] == 0
    assert service.metrics.gauge("service.queue_depth.u").value == 0


def test_shutdown_cancels_everything_no_strands(store):
    service = make_service(store, max_jobs_per_iteration=1)
    a = service.submit(wordcount_job("a", r"a"))
    b = service.submit(wordcount_job("b", r"b"))
    service.step()  # a scanning, b held pending by the cap
    service.shutdown()
    assert service.status(a).status is JobStatus.CANCELLED
    assert service.status(b).status is JobStatus.CANCELLED
    assert service.queue_depths() == {}
    with pytest.raises(ServiceError, match="shutting down"):
        service.submit(wordcount_job("c", r"c"))
    # Idempotent.
    service.shutdown()


def test_a_declining_kernel_fails_the_core_once_admitted(store):
    """A rider whose batch kernel declines the store's reader is
    admitted like any job; its first wave's run, outside the service's
    lock, fails the core and cancels it with the kernel's error."""
    service = make_service(store)
    job_id = service.submit(selection_job("sel", 10.0), tenant="t")
    with pytest.raises(ExecutionError, match="does not support"):
        service.step()
    ticket = service.status(job_id)
    assert ticket.status is JobStatus.CANCELLED
    assert ticket.admitted_at is not None  # it was SCANNING
    assert "does not support TextLineReader" in ticket.error


def test_metrics_and_events_emitted(store):
    config = ServiceConfig(
        execution=ExecutionConfig(blocks_per_segment=4,
                                  trace=TraceConfig(enabled=True)))
    service = SchedulerService(store, config)
    service.submit(wordcount_job("wc", r"alpha"), tenant="t")
    run_to_completion(service)
    service.shutdown()
    edges = service.snapshot()["telemetry"]["edges"]
    assert {name: edge["total"] for name, edge in edges.items()} == {
        "submitted": 1, "admitted": 1, "completed": 1,
        "rejected": 0, "cancelled": 0, "failed": 0}
    # The registry keeps its gauges; the lifecycle counters are gone.
    assert set(service.metrics.snapshot()) == {
        "service.queue_depth.t", "service.slots_active"}
    assert service.metrics.gauge("service.queue_depth.t").value == 0
    names = {event.name for event in service.tracer.events()}
    assert {"service.submit", "service.admit", "service.complete",
            "s3.align", "s3.iteration", "io.wave"} <= names
    align = [e for e in service.tracer.events() if e.name == "s3.align"]
    assert align[0].args["start_block"] == 0


def test_snapshot_shape(store):
    service = make_service(store)
    service.submit(wordcount_job("wc", r"alpha"), tenant="t")
    run_to_completion(service)
    snap = service.snapshot()
    assert snap["jobs"]["wc"]["status"] == "done"
    assert snap["iterations"] > 0 and snap["blocks_read"] > 0
    assert snap["tenants"][0]["tenant"] == "t"
    assert 0.0 < snap["fairness"]["response_fairness"] <= 1.0
    service.shutdown()


# ------------------------------------------------------------ threaded mode

def test_threaded_submit_drain(store):
    with make_service(store) as service:
        ids = [service.submit(wordcount_job(f"wc{i}", r"alpha"),
                              tenant=f"t{i % 2}") for i in range(4)]
        tickets = service.drain(timeout=60.0)
        assert {t.job_id for t in tickets} == set(ids)
        assert all(t.status is JobStatus.DONE for t in tickets)
        report = service.fairness()
        assert 0.0 < report.response_fairness <= 1.0


def test_threaded_wait_for_and_draining_refusal(store):
    with make_service(store) as service:
        job_id = service.submit(wordcount_job("wc", r"alpha"))
        ticket = service.wait_for(job_id, timeout=60.0)
        assert ticket.status is JobStatus.DONE
        with pytest.raises(ServiceError, match="unknown"):
            service.wait_for("ghost", timeout=1.0)


def test_step_refused_while_threaded_core_runs(store):
    with make_service(store) as service:
        with pytest.raises(ServiceError, match="core thread"):
            service.step()


def test_shut_down_service_is_freed_by_refcount(tmp_path, balanced_books):
    """Nothing the service hands its components points back at it, so
    once it is shut down and dropped its store — derived-view table,
    encoded blocks and all — goes at once, not at the next cyclic
    collection."""
    store = BlockStore.create(
        tmp_path / "corpus",
        [f"alpha beta gamma line {i:04d}" for i in range(160)],
        block_size_bytes=512)
    enabled = gc.isenabled()
    gc.disable()
    try:
        service = SchedulerService(store, ServiceConfig()).start()
        service.submit(wordcount_job("wc", "^a.*"))
        service.drain()
        assert store.derived.stats()["resident_blocks"] == store.num_blocks
        service.shutdown()
        assert_books_balance(service)
        balanced_books.remove(service)
        dead_store, dead_service = weakref.ref(store), weakref.ref(service)
        del service, store
        assert dead_service() is None
        assert dead_store() is None
    finally:
        if enabled:
            gc.enable()


def test_restart_after_shutdown_refused(store):
    service = make_service(store)
    service.start()
    service.shutdown()
    with pytest.raises(ServiceError):
        service.start()
