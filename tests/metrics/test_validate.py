"""Trace validator tests."""

import pytest

from repro.common.config import ClusterConfig
from repro.common.errors import ExperimentError
from repro.metrics.validate import validate_trace
from repro.obs import Tracer


def sim_tracer() -> Tracer:
    return Tracer(name="sim", clock=lambda: 0.0)


def valid_trace() -> Tracer:
    log = sim_tracer()
    log.event_at(0.0, "job.submit", subject="j0")
    log.event_at(0.0, "task.start.map", subject="a", node="n0", duration=2.0)
    log.event_at(2.0, "task.finish.map", subject="a", node="n0")
    log.event_at(2.0, "task.start.reduce", subject="r", node="n0", duration=1.0)
    log.event_at(3.0, "task.finish.reduce", subject="r", node="n0")
    log.event_at(3.0, "job.complete", subject="j0")
    return log


def test_valid_trace_passes():
    report = validate_trace(valid_trace(),
                            ClusterConfig(num_nodes=1, rack_sizes=(1,)))
    assert report.ok
    report.raise_if_invalid()  # no-op


def test_unended_attempt_flagged():
    log = sim_tracer()
    log.event_at(0.0, "task.start.map", subject="a", node="n0")
    report = validate_trace(log)
    assert any("never ended" in v for v in report.violations)


def test_end_without_start_flagged():
    log = sim_tracer()
    log.event_at(1.0, "task.finish.map", subject="ghost", node="n0")
    report = validate_trace(log)
    assert any("end without start" in v for v in report.violations)


def test_time_going_backwards_flagged():
    log = sim_tracer()
    log.event_at(5.0, "node.offline", subject="n0")
    log.event_at(1.0, "node.online", subject="n0")
    report = validate_trace(log)
    assert report.violations == [
        "time went backwards at node.online n0 (1.0 < 5.0)"]


def test_slot_overcommit_flagged():
    log = sim_tracer()
    log.event_at(0.0, "task.start.map", subject="a", node="n0")
    log.event_at(0.0, "task.start.map", subject="b", node="n0")
    log.event_at(1.0, "task.finish.map", subject="a", node="n0")
    log.event_at(1.0, "task.finish.map", subject="b", node="n0")
    config = ClusterConfig(num_nodes=1, rack_sizes=(1,), map_slots_per_node=1)
    report = validate_trace(log, config)
    assert any("exceed 1 slots" in v for v in report.violations)
    # With 2 slots it's fine.
    roomy = ClusterConfig(num_nodes=1, rack_sizes=(1,), map_slots_per_node=2)
    assert validate_trace(log, roomy).ok


def test_start_on_offline_node_flagged():
    log = sim_tracer()
    log.event_at(0.0, "node.offline", subject="n0")
    log.event_at(1.0, "task.start.map", subject="a", node="n0")
    log.event_at(2.0, "task.finish.map", subject="a", node="n0")
    report = validate_trace(log)
    assert any("offline node" in v for v in report.violations)


def test_incomplete_job_flagged():
    log = sim_tracer()
    log.event_at(0.0, "job.submit", subject="j0")
    report = validate_trace(log)
    assert any("never completed" in v for v in report.violations)


def test_double_completion_flagged():
    log = sim_tracer()
    log.event_at(0.0, "job.submit", subject="j0")
    log.event_at(1.0, "job.complete", subject="j0")
    log.event_at(2.0, "job.complete", subject="j0")
    report = validate_trace(log)
    assert any("completed twice" in v for v in report.violations)


def test_raise_if_invalid():
    log = sim_tracer()
    log.event_at(0.0, "job.submit", subject="j0")
    with pytest.raises(ExperimentError, match="trace invalid"):
        validate_trace(log).raise_if_invalid()


@pytest.mark.parametrize("scheduler_kind", ["fifo", "mrshare", "s3",
                                            "s3-faulty"])
def test_real_runs_validate(scheduler_kind, small_cluster_config,
                            small_dfs_config, fast_profile, job_factory):
    """Every scheduler's real trace satisfies the invariants —
    including under fault injection."""
    from repro.mapreduce.costmodel import CostModel
    from repro.mapreduce.driver import SimulationDriver
    from repro.mapreduce.faults import FaultModel
    from repro.schedulers.fifo import FifoScheduler
    from repro.schedulers.mrshare import MRShareScheduler
    from repro.schedulers.s3 import S3Scheduler

    faults = None
    if scheduler_kind == "fifo":
        scheduler = FifoScheduler()
    elif scheduler_kind == "mrshare":
        scheduler = MRShareScheduler.single_batch(2)
    else:
        scheduler = S3Scheduler()
        if scheduler_kind == "s3-faulty":
            faults = FaultModel(task_failure_prob=0.15, max_attempts=30,
                                seed=4)
    driver = SimulationDriver(
        scheduler, cluster_config=small_cluster_config,
        dfs_config=small_dfs_config,
        cost_model=CostModel(job_submit_overhead_s=0.5, subjob_overhead_s=0.1),
        fault_model=faults)
    driver.register_file("f", 64.0 * 24)
    driver.submit_all(job_factory(fast_profile, 2), [0.0, 5.0])
    result = driver.run()
    validate_trace(result.tracer, small_cluster_config).raise_if_invalid()
