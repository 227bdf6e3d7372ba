"""Simulation driver tests, using the FIFO scheduler as the workhorse."""

import pytest

from repro.common.errors import SimulationError
from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.driver import SimulationDriver
from repro.mapreduce.job import JobSpec
from repro.schedulers.fifo import FifoScheduler


def make_driver(small_cluster_config, small_dfs_config, cost=None):
    return SimulationDriver(FifoScheduler(),
                            cluster_config=small_cluster_config,
                            dfs_config=small_dfs_config,
                            cost_model=cost or CostModel(
                                job_submit_overhead_s=0.0))


def test_single_job_runs_to_completion(small_cluster_config, small_dfs_config,
                                       fast_profile, job_factory):
    driver = make_driver(small_cluster_config, small_dfs_config)
    driver.register_file("f", 64.0 * 16)  # 16 blocks, 8 slots -> 2 waves
    driver.submit_all(job_factory(fast_profile, 1), [0.0])
    result = driver.run()
    assert all(t.is_complete for t in result.timelines.values())
    timeline = result.timeline("j0")
    assert timeline.submitted == 0.0
    assert timeline.first_launch == 0.0
    # 2 waves x ~1.6s map + 2s reduce
    assert timeline.completed == pytest.approx(2 * 1.6 + 2.0, abs=0.2)


def test_submit_unregistered_file_rejected(small_cluster_config,
                                           small_dfs_config, fast_profile):
    driver = make_driver(small_cluster_config, small_dfs_config)
    with pytest.raises(SimulationError, match="not registered"):
        driver.submit(JobSpec(job_id="j", file_name="ghost",
                              profile=fast_profile), 0.0)


def test_duplicate_job_id_rejected(small_cluster_config, small_dfs_config,
                                   fast_profile, job_factory):
    driver = make_driver(small_cluster_config, small_dfs_config)
    driver.register_file("f", 64.0)
    jobs = job_factory(fast_profile, 1)
    driver.submit(jobs[0], 0.0)
    with pytest.raises(SimulationError, match="duplicate"):
        driver.submit(jobs[0], 1.0)


def test_negative_arrival_rejected(small_cluster_config, small_dfs_config,
                                   fast_profile, job_factory):
    driver = make_driver(small_cluster_config, small_dfs_config)
    driver.register_file("f", 64.0)
    with pytest.raises(SimulationError):
        driver.submit(job_factory(fast_profile, 1)[0], -1.0)


def test_mismatched_submit_all(small_cluster_config, small_dfs_config,
                               fast_profile, job_factory):
    driver = make_driver(small_cluster_config, small_dfs_config)
    driver.register_file("f", 64.0)
    with pytest.raises(SimulationError, match="equal length"):
        driver.submit_all(job_factory(fast_profile, 2), [0.0])


def test_run_twice_rejected(small_cluster_config, small_dfs_config,
                            fast_profile, job_factory):
    driver = make_driver(small_cluster_config, small_dfs_config)
    driver.register_file("f", 64.0)
    driver.submit_all(job_factory(fast_profile, 1), [0.0])
    driver.run()
    with pytest.raises(SimulationError, match="already ran"):
        driver.run()


def test_submit_after_run_rejected(small_cluster_config, small_dfs_config,
                                   fast_profile, job_factory):
    driver = make_driver(small_cluster_config, small_dfs_config)
    driver.register_file("f", 64.0)
    jobs = job_factory(fast_profile, 2)
    driver.submit(jobs[0], 0.0)
    driver.run()
    with pytest.raises(SimulationError):
        driver.submit(jobs[1], 0.0)


def test_trace_records_lifecycle(small_cluster_config, small_dfs_config,
                                 fast_profile, job_factory):
    driver = make_driver(small_cluster_config, small_dfs_config)
    driver.register_file("f", 64.0 * 4)
    driver.submit_all(job_factory(fast_profile, 1), [0.0])
    result = driver.run()
    assert result.tracer.instants(name="job.submit", subject="j0")
    assert len(result.tracer.instants(name="task.start.map")) == 4
    assert len(result.tracer.instants(name="task.finish.map")) == 4
    assert len(result.tracer.instants(name="task.start.reduce")) == 4
    assert result.tracer.instants(name="job.complete", subject="j0")


def test_locality_with_round_robin_placement(small_cluster_config,
                                             small_dfs_config, fast_profile,
                                             job_factory):
    """One block per node + one slot per node: every map can be local."""
    driver = make_driver(small_cluster_config, small_dfs_config)
    driver.register_file("f", 64.0 * 8)
    driver.submit_all(job_factory(fast_profile, 1), [0.0])
    result = driver.run()
    assert result.locality.remote == 0


def test_slots_respected(small_cluster_config, small_dfs_config,
                         fast_profile, job_factory):
    """Never more concurrent maps than cluster slots (validated by Node)."""
    driver = make_driver(small_cluster_config, small_dfs_config)
    driver.register_file("f", 64.0 * 40)
    driver.submit_all(job_factory(fast_profile, 2), [0.0, 1.0])
    result = driver.run()  # Node.acquire raises on overcommit
    assert all(t.is_complete for t in result.timelines.values())


def test_job_arrival_later_starts_later(small_cluster_config, small_dfs_config,
                                        fast_profile, job_factory):
    driver = make_driver(small_cluster_config, small_dfs_config)
    driver.register_file("f", 64.0 * 8)
    driver.submit_all(job_factory(fast_profile, 1), [100.0])
    result = driver.run()
    assert result.timeline("j0").first_launch == 100.0
    assert result.end_time > 100.0
