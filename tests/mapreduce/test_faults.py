"""Fault injection: task failures, node outages, retry accounting."""

import pytest

from repro.common.errors import ConfigError, SimulationError
from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.driver import SimulationDriver
from repro.mapreduce.faults import FaultModel, Outage, SpeculationConfig
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.mrshare import MRShareScheduler
from repro.schedulers.s3 import S3Scheduler


def run_with_faults(scheduler, fault_model, small_cluster_config,
                    small_dfs_config, fast_profile, job_factory,
                    blocks=16, num_jobs=2, arrivals=None):
    driver = SimulationDriver(
        scheduler, cluster_config=small_cluster_config,
        dfs_config=small_dfs_config,
        cost_model=CostModel(job_submit_overhead_s=0.0, subjob_overhead_s=0.0),
        fault_model=fault_model)
    driver.register_file("f", 64.0 * blocks)
    driver.submit_all(job_factory(fast_profile, num_jobs),
                      arrivals or [0.0] * num_jobs)
    return driver.run()


# -------------------------------------------------------------- validation
def test_fault_model_validation():
    with pytest.raises(ConfigError):
        FaultModel(task_failure_prob=1.0)
    with pytest.raises(ConfigError):
        FaultModel(task_failure_prob=-0.1)
    with pytest.raises(ConfigError):
        FaultModel(max_attempts=0)
    with pytest.raises(ConfigError):
        Outage("n0", start=-1.0, duration=5.0)
    with pytest.raises(ConfigError):
        SpeculationConfig(check_interval_s=0.0)
    with pytest.raises(ConfigError):
        SpeculationConfig(slowness_factor=1.0)


def test_sample_failure_rates():
    model = FaultModel(task_failure_prob=0.5, seed=1)
    samples = [model.sample_failure() for _ in range(400)]
    failures = [s for s in samples if s is not None]
    assert 120 <= len(failures) <= 280
    assert all(0.0 < f < 1.0 for f in failures)


# --------------------------------------------------- retries per scheduler
@pytest.mark.parametrize("scheduler_factory", [
    FifoScheduler,
    lambda: MRShareScheduler.single_batch(2),
    S3Scheduler,
], ids=["fifo", "mrshare", "s3"])
def test_jobs_survive_task_failures(scheduler_factory, small_cluster_config,
                                    small_dfs_config, fast_profile,
                                    job_factory):
    faults = FaultModel(task_failure_prob=0.15, max_attempts=25, seed=7)
    result = run_with_faults(scheduler_factory(), faults,
                             small_cluster_config, small_dfs_config,
                             fast_profile, job_factory, blocks=24)
    assert all(t.is_complete for t in result.timelines.values())
    assert result.task_failures > 0
    assert len(result.tracer.instants(name="task.fail.map")) \
        + len(result.tracer.instants(name="task.fail.reduce")) \
        == result.task_failures


def test_failures_extend_completion_time(small_cluster_config,
                                         small_dfs_config, fast_profile,
                                         job_factory):
    clean = run_with_faults(FifoScheduler(), None, small_cluster_config,
                            small_dfs_config, fast_profile, job_factory)
    faulty = run_with_faults(FifoScheduler(),
                             FaultModel(task_failure_prob=0.3,
                                        max_attempts=50, seed=3),
                             small_cluster_config, small_dfs_config,
                             fast_profile, job_factory)
    assert faulty.end_time > clean.end_time


def test_max_attempts_enforced(small_cluster_config, small_dfs_config,
                               fast_profile, job_factory):
    # Extremely failure-prone tasks with a tight retry budget must abort.
    faults = FaultModel(task_failure_prob=0.95, max_attempts=2, seed=5)
    with pytest.raises(SimulationError, match="max_attempts"):
        run_with_faults(FifoScheduler(), faults, small_cluster_config,
                        small_dfs_config, fast_profile, job_factory)


def test_scheduler_without_retry_support_refuses(small_cluster_config,
                                                 small_dfs_config,
                                                 fast_profile, job_factory):
    """The base Scheduler rejects failures rather than silently hanging."""
    from repro.common.errors import SchedulingError
    from repro.mapreduce.driver import Scheduler

    class NoRetry(FifoScheduler):
        on_task_failed = Scheduler.on_task_failed

    faults = FaultModel(task_failure_prob=0.9, max_attempts=10, seed=2)
    with pytest.raises(SchedulingError, match="does not implement retry"):
        run_with_faults(NoRetry(), faults, small_cluster_config,
                        small_dfs_config, fast_profile, job_factory)


# ------------------------------------------------------------------ outages
def test_outage_fails_running_tasks_and_recovers(small_cluster_config,
                                                 small_dfs_config,
                                                 fast_profile, job_factory):
    faults = FaultModel(outages=(Outage("node_000", start=0.5, duration=3.0),),
                        seed=1)
    result = run_with_faults(S3Scheduler(), faults, small_cluster_config,
                             small_dfs_config, fast_profile, job_factory,
                             blocks=24)
    assert all(t.is_complete for t in result.timelines.values())
    assert result.tracer.instants(name="node.offline", subject="node_000")
    assert result.tracer.instants(name="node.online", subject="node_000")
    # The attempt running on node_000 at t=0.5 was failed.
    assert result.task_failures >= 1


def test_no_tasks_scheduled_during_outage(small_cluster_config,
                                          small_dfs_config, fast_profile,
                                          job_factory):
    faults = FaultModel(outages=(Outage("node_003", start=0.0, duration=100.0),))
    result = run_with_faults(FifoScheduler(), faults, small_cluster_config,
                             small_dfs_config, fast_profile, job_factory,
                             blocks=16, num_jobs=1)
    offline_window_starts = [
        r for r in result.tracer.instants(name="task.start.map")
        if r.args["node"] == "node_003" and r.ts < 100.0]
    assert not offline_window_starts


def test_outage_of_unknown_node_rejected(small_cluster_config,
                                         small_dfs_config, fast_profile,
                                         job_factory):
    faults = FaultModel(outages=(Outage("ghost", start=1.0, duration=1.0),))
    with pytest.raises(SimulationError, match="unknown node"):
        run_with_faults(FifoScheduler(), faults, small_cluster_config,
                        small_dfs_config, fast_profile, job_factory)
