"""Speculative execution tests (the mechanism the paper disables)."""

import pytest

from repro.common.config import ClusterConfig
from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.driver import SimulationDriver
from repro.mapreduce.faults import SpeculationConfig
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.s3 import S3Scheduler


def straggler_cluster(slow_speed=0.2):
    """8 nodes, one painfully slow."""
    speeds = [1.0] * 7 + [slow_speed]
    return ClusterConfig(num_nodes=8, rack_sizes=(4, 4), node_speeds=speeds)


def run(scheduler, *, speculation, small_dfs_config, fast_profile,
        job_factory, blocks=8, slow_speed=0.2):
    driver = SimulationDriver(
        scheduler, cluster_config=straggler_cluster(slow_speed),
        dfs_config=small_dfs_config,
        cost_model=CostModel(job_submit_overhead_s=0.0, subjob_overhead_s=0.0),
        speculation=speculation)
    driver.register_file("f", 64.0 * blocks)
    driver.submit_all(job_factory(fast_profile, 1), [0.0])
    return driver.run()


@pytest.fixture
def spec_on():
    return SpeculationConfig(enabled=True, check_interval_s=0.5,
                             slowness_factor=1.3, min_completed=3)


def test_disabled_by_default(small_dfs_config, fast_profile, job_factory):
    result = run(FifoScheduler(), speculation=SpeculationConfig(),
                 small_dfs_config=small_dfs_config, fast_profile=fast_profile,
                 job_factory=job_factory)
    assert result.speculative_launched == 0


def test_speculation_launches_backups(spec_on, small_dfs_config, fast_profile,
                                      job_factory):
    result = run(FifoScheduler(), speculation=spec_on,
                 small_dfs_config=small_dfs_config, fast_profile=fast_profile,
                 job_factory=job_factory)
    assert all(t.is_complete for t in result.timelines.values())
    assert result.speculative_launched > 0
    assert result.speculative_won > 0
    # The losers were killed, not completed.
    assert len(result.tracer.instants(name="task.killed.map")) > 0


def test_speculation_improves_makespan(spec_on, small_dfs_config,
                                       fast_profile, job_factory):
    base = run(FifoScheduler(), speculation=SpeculationConfig(),
               small_dfs_config=small_dfs_config, fast_profile=fast_profile,
               job_factory=job_factory)
    spec = run(FifoScheduler(), speculation=spec_on,
               small_dfs_config=small_dfs_config, fast_profile=fast_profile,
               job_factory=job_factory)
    assert spec.end_time < base.end_time


def test_speculation_with_s3(spec_on, small_dfs_config, fast_profile,
                             job_factory):
    result = run(S3Scheduler(), speculation=spec_on,
                 small_dfs_config=small_dfs_config, fast_profile=fast_profile,
                 job_factory=job_factory)
    assert all(t.is_complete for t in result.timelines.values())
    assert result.speculative_launched > 0


def test_exactly_one_completion_per_task(spec_on, small_dfs_config,
                                         fast_profile, job_factory):
    """Sibling kills never double-complete a task."""
    result = run(FifoScheduler(), speculation=spec_on,
                 small_dfs_config=small_dfs_config, fast_profile=fast_profile,
                 job_factory=job_factory, blocks=24)
    finishes = result.tracer.instants(name="task.finish.map")
    tasks = {r.subject.rsplit(".attempt_", 1)[0] for r in finishes}
    assert len(finishes) == len(tasks) == 24
