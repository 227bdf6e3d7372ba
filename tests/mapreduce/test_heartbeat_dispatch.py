"""Heartbeat-driven dispatch mode tests (Hadoop 0.20 semantics)."""

import pytest

from repro.common.errors import SimulationError
from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.driver import SimulationDriver
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.s3 import S3Scheduler


def run(scheduler, small_cluster_config, small_dfs_config, jobs, arrivals,
        *, mode="heartbeat", interval=1.0, per_beat=2, blocks=16):
    driver = SimulationDriver(
        scheduler, cluster_config=small_cluster_config,
        dfs_config=small_dfs_config,
        cost_model=CostModel(job_submit_overhead_s=0.0, subjob_overhead_s=0.0),
        dispatch_mode=mode, heartbeat_interval_s=interval,
        tasks_per_heartbeat=per_beat)
    driver.register_file("f", 64.0 * blocks)
    driver.submit_all(jobs, arrivals)
    return driver.run()


def test_mode_validation(small_cluster_config):
    with pytest.raises(SimulationError, match="dispatch_mode"):
        SimulationDriver(FifoScheduler(), dispatch_mode="bogus")
    with pytest.raises(SimulationError):
        SimulationDriver(FifoScheduler(), dispatch_mode="heartbeat",
                         heartbeat_interval_s=0.0)
    with pytest.raises(SimulationError):
        SimulationDriver(FifoScheduler(), dispatch_mode="heartbeat",
                         tasks_per_heartbeat=0)


@pytest.mark.parametrize("scheduler_factory", [FifoScheduler, S3Scheduler],
                         ids=["fifo", "s3"])
def test_jobs_complete_under_heartbeat_dispatch(scheduler_factory,
                                                small_cluster_config,
                                                small_dfs_config,
                                                fast_profile, job_factory):
    result = run(scheduler_factory(), small_cluster_config, small_dfs_config,
                 job_factory(fast_profile, 2), [0.0, 5.0])
    assert all(t.is_complete for t in result.timelines.values())


def test_heartbeat_dispatch_is_slower(small_cluster_config, small_dfs_config,
                                      fast_profile, job_factory):
    """Dispatch latency inflates the makespan vs instant assignment —
    the effect event mode folds into task_startup_s."""
    event = run(FifoScheduler(), small_cluster_config, small_dfs_config,
                job_factory(fast_profile, 1), [0.0], mode="event")
    beat = run(FifoScheduler(), small_cluster_config, small_dfs_config,
               job_factory(fast_profile, 1), [0.0], mode="heartbeat",
               interval=2.0)
    assert beat.end_time > event.end_time


def test_no_task_starts_between_heartbeats(small_cluster_config,
                                           small_dfs_config, fast_profile,
                                           job_factory):
    """Task starts cluster at heartbeat instants (k * interval / n grid)."""
    interval = 1.0
    result = run(FifoScheduler(), small_cluster_config, small_dfs_config,
                 job_factory(fast_profile, 1), [0.0], interval=interval)
    n = 8  # nodes
    for record in result.tracer.instants(name="task.start.map"):
        remainder = (record.ts * n / interval) % 1.0
        assert remainder == pytest.approx(0.0, abs=1e-6) or \
            remainder == pytest.approx(1.0, abs=1e-6)


def test_tasks_per_heartbeat_bounds_assignment(small_cluster_config,
                                               small_dfs_config, fast_profile,
                                               job_factory):
    result = run(FifoScheduler(), small_cluster_config, small_dfs_config,
                 job_factory(fast_profile, 1), [0.0], per_beat=1, blocks=24)
    # No node ever received two tasks at the same instant.
    starts: dict[tuple[float, str], int] = {}
    for record in result.tracer.instants(name="task.start.map"):
        key = (record.ts, record.args["node"])
        starts[key] = starts.get(key, 0) + 1
    assert all(count == 1 for count in starts.values())


def test_smaller_interval_faster(small_cluster_config, small_dfs_config,
                                 fast_profile, job_factory):
    slow = run(FifoScheduler(), small_cluster_config, small_dfs_config,
               job_factory(fast_profile, 1), [0.0], interval=3.0)
    fast = run(FifoScheduler(), small_cluster_config, small_dfs_config,
               job_factory(fast_profile, 1), [0.0], interval=0.5)
    assert fast.end_time < slow.end_time


def test_restart_after_idle_gap(small_cluster_config, small_dfs_config,
                                fast_profile, job_factory):
    """Heartbeats stop when all jobs finish and restart on a late arrival."""
    result = run(FifoScheduler(), small_cluster_config, small_dfs_config,
                 job_factory(fast_profile, 2), [0.0, 200.0], blocks=8)
    assert all(t.is_complete for t in result.timelines.values())
    assert result.timeline("j1").first_launch >= 200.0
