"""FIFO scheduler behaviour tests."""

import pytest

from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.driver import SimulationDriver
from repro.mapreduce.job import JobSpec
from repro.metrics.measures import compute_metrics
from repro.schedulers.fifo import FifoScheduler


def run_fifo(small_cluster_config, small_dfs_config, jobs, arrivals,
             blocks=16, cost=None):
    driver = SimulationDriver(
        FifoScheduler(), cluster_config=small_cluster_config,
        dfs_config=small_dfs_config,
        cost_model=cost or CostModel(job_submit_overhead_s=0.0))
    driver.register_file("f", 64.0 * blocks)
    driver.submit_all(jobs, arrivals)
    return driver.run()


def test_jobs_execute_sequentially(small_cluster_config, small_dfs_config,
                                   fast_profile, job_factory):
    """Two simultaneous jobs: the second's maps wait for the first's."""
    jobs = job_factory(fast_profile, 2)
    result = run_fifo(small_cluster_config, small_dfs_config, jobs, [0.0, 0.0])
    first_done = result.timeline("j0").completed
    second_done = result.timeline("j1").completed
    # Job 0: 2 map waves (~1.6s each) + reduce 2s ~ 5.2; job 1 roughly doubles.
    assert second_done > first_done
    metrics = compute_metrics("FIFO", result.timelines)
    # Sequential: TET ~ 2x single-job map phases.
    single_map_phase = 2 * 1.6
    assert metrics.tet == pytest.approx(2 * single_map_phase + 2.0, abs=0.5)


def test_no_scan_sharing(small_cluster_config, small_dfs_config,
                         fast_profile, job_factory):
    """FIFO launches one map task per block *per job*."""
    jobs = job_factory(fast_profile, 3)
    result = run_fifo(small_cluster_config, small_dfs_config, jobs,
                      [0.0, 0.0, 0.0], blocks=8)
    map_starts = result.tracer.instants(name="task.start.map")
    assert len(map_starts) == 3 * 8
    assert all(r.args["jobs"] == 1 for r in map_starts)


def test_idle_cluster_starts_immediately(small_cluster_config,
                                         small_dfs_config, fast_profile,
                                         job_factory):
    jobs = job_factory(fast_profile, 1)
    result = run_fifo(small_cluster_config, small_dfs_config, jobs, [50.0])
    assert result.timeline("j0").first_launch == 50.0


def test_submit_overhead_delays_start(small_cluster_config, small_dfs_config,
                                      fast_profile, job_factory):
    jobs = job_factory(fast_profile, 1)
    cost = CostModel(job_submit_overhead_s=7.5)
    result = run_fifo(small_cluster_config, small_dfs_config, jobs, [0.0],
                      cost=cost)
    assert result.timeline("j0").first_launch == pytest.approx(7.5)


def test_priority_jumps_pending_queue(small_cluster_config, small_dfs_config,
                                      fast_profile):
    """A high-priority job submitted later overtakes queued normal jobs."""
    jobs = [JobSpec(job_id="a", file_name="f", profile=fast_profile),
            JobSpec(job_id="b", file_name="f", profile=fast_profile),
            JobSpec(job_id="hi", file_name="f", profile=fast_profile,
                    priority=10)]
    result = run_fifo(small_cluster_config, small_dfs_config, jobs,
                      [0.0, 0.0, 0.1], blocks=32)
    # "hi" must finish before "b" (which was ahead in the queue but lower
    # priority and had not started when "hi" arrived).
    assert result.timeline("hi").completed < result.timeline("b").completed


def test_running_job_not_preempted(small_cluster_config, small_dfs_config,
                                   fast_profile):
    jobs = [JobSpec(job_id="a", file_name="f", profile=fast_profile),
            JobSpec(job_id="hi", file_name="f", profile=fast_profile,
                    priority=10)]
    result = run_fifo(small_cluster_config, small_dfs_config, jobs,
                      [0.0, 0.5], blocks=32)
    # Job "a" started at 0; the high-priority job waits for its maps.
    a_map_finishes = [r.ts for r in result.tracer.instants(
        name="task.start.map") if r.subject.startswith("fifo:a")]
    hi_map_starts = [r.ts for r in result.tracer.instants(
        name="task.start.map") if r.subject.startswith("fifo:hi")]
    assert min(hi_map_starts) >= max(a_map_finishes)


def test_reduce_overlaps_next_jobs_maps(small_cluster_config, small_dfs_config,
                                        fast_profile, job_factory):
    """Reduces run on separate slots, overlapping the next job's maps."""
    jobs = job_factory(fast_profile, 2)
    result = run_fifo(small_cluster_config, small_dfs_config, jobs,
                      [0.0, 0.0], blocks=16)
    j0_reduce_start = min(r.ts for r in result.tracer.instants(
        name="task.start.reduce") if r.subject.startswith("fifo:j0"))
    j1_map_start = min(r.ts for r in result.tracer.instants(
        name="task.start.map") if r.subject.startswith("fifo:j1"))
    assert j1_map_start <= j0_reduce_start + 1e-9
