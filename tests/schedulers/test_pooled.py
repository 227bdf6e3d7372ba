"""Capacity / Fair scheduler tests (partial-utilisation baselines)."""

import pytest

from repro.common.errors import SchedulingError
from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.driver import SimulationDriver
from repro.mapreduce.job import JobSpec
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.pooled import (
    CapacityScheduler,
    FairScheduler,
    pool_of,
    tag_pool,
)


def run(scheduler, small_cluster_config, small_dfs_config, jobs, arrivals,
        blocks=16):
    driver = SimulationDriver(
        scheduler, cluster_config=small_cluster_config,
        dfs_config=small_dfs_config,
        cost_model=CostModel(job_submit_overhead_s=0.0))
    driver.register_file("f", 64.0 * blocks)
    driver.submit_all(jobs, arrivals)
    return driver.run()


def pooled_jobs(fast_profile, pools):
    return [JobSpec(job_id=f"j{i}", file_name="f", profile=fast_profile,
                    tag=tag_pool(pool))
            for i, pool in enumerate(pools)]


# ------------------------------------------------------------- pool tagging
def test_pool_of_parses_tag(fast_profile):
    job = JobSpec(job_id="j", file_name="f", profile=fast_profile,
                  tag=tag_pool("analytics", "wordcount[^th.*]"))
    assert pool_of(job) == "analytics"


def test_pool_of_defaults(fast_profile):
    job = JobSpec(job_id="j", file_name="f", profile=fast_profile)
    assert pool_of(job) == "default"


def test_tag_pool_validation():
    with pytest.raises(SchedulingError):
        tag_pool("")
    with pytest.raises(SchedulingError):
        tag_pool("two words")


# --------------------------------------------------------------- validation
def test_capacity_share_validation():
    with pytest.raises(SchedulingError):
        CapacityScheduler({})
    with pytest.raises(SchedulingError):
        CapacityScheduler({"a": 0.0})
    with pytest.raises(SchedulingError):
        CapacityScheduler({"a": 0.7, "b": 0.7})


def test_capacity_rejects_undeclared_queue(small_cluster_config,
                                           small_dfs_config, fast_profile):
    scheduler = CapacityScheduler({"a": 1.0})
    jobs = pooled_jobs(fast_profile, ["ghost"])
    with pytest.raises(SchedulingError, match="undeclared"):
        run(scheduler, small_cluster_config, small_dfs_config, jobs, [0.0])


# ------------------------------------------------------------- concurrency
def test_fair_runs_pools_concurrently(small_cluster_config, small_dfs_config,
                                      fast_profile):
    """Two pools with simultaneous jobs both make progress immediately —
    unlike FIFO where the second job waits for the first's maps."""
    jobs = pooled_jobs(fast_profile, ["a", "b"])
    result = run(FairScheduler(), small_cluster_config, small_dfs_config,
                 jobs, [0.0, 0.0], blocks=32)
    assert result.timeline("j0").first_launch == 0.0
    assert result.timeline("j1").first_launch == 0.0

    fifo_jobs = pooled_jobs(fast_profile, ["a", "b"])
    fifo = run(FifoScheduler(), small_cluster_config, small_dfs_config,
               fifo_jobs, [0.0, 0.0], blocks=32)
    assert fifo.timeline("j1").first_launch > 0.0


def test_fair_splits_slots_evenly(small_cluster_config, small_dfs_config,
                                  fast_profile):
    jobs = pooled_jobs(fast_profile, ["a", "b"])
    result = run(FairScheduler(), small_cluster_config, small_dfs_config,
                 jobs, [0.0, 0.0], blocks=32)
    # First wave (launches at t=0): 8 slots split 4/4.
    first_wave = [r for r in result.tracer.instants(name="task.start.map")
                  if r.ts == 0.0]
    assert len(first_wave) == 8
    by_job = {}
    for record in first_wave:
        key = record.subject.split(":")[1]  # pool name
        by_job[key] = by_job.get(key, 0) + 1
    assert by_job == {"a": 4, "b": 4}


def test_capacity_respects_guarantees(small_cluster_config, small_dfs_config,
                                      fast_profile):
    """A 75/25 split gives queue 'big' three times queue 'small's slots."""
    scheduler = CapacityScheduler({"big": 0.75, "small": 0.25})
    jobs = pooled_jobs(fast_profile, ["big", "small"])
    result = run(scheduler, small_cluster_config, small_dfs_config, jobs,
                 [0.0, 0.0], blocks=64)
    first_wave = [r for r in result.tracer.instants(name="task.start.map")
                  if r.ts == 0.0]
    by_pool = {}
    for record in first_wave:
        pool = record.subject.split(":")[1]
        by_pool[pool] = by_pool.get(pool, 0) + 1
    assert by_pool == {"big": 6, "small": 2}


def test_capacity_excess_flows_to_demanding_queue(small_cluster_config,
                                                  small_dfs_config,
                                                  fast_profile):
    """With only one queue active it takes the whole cluster (elasticity)."""
    scheduler = CapacityScheduler({"a": 0.5, "b": 0.5})
    jobs = pooled_jobs(fast_profile, ["a"])
    result = run(scheduler, small_cluster_config, small_dfs_config, jobs,
                 [0.0], blocks=16)
    first_wave = [r for r in result.tracer.instants(name="task.start.map")
                  if r.ts == 0.0]
    assert len(first_wave) == 8  # all slots, not 4


def test_fair_improves_art_but_not_tet_vs_fifo(small_cluster_config,
                                               small_dfs_config,
                                               fast_profile):
    """The paper's Section II.B critique, measured: concurrency helps
    response time a little but there is still no scan sharing."""
    from repro.metrics.measures import compute_metrics
    arrivals = [0.0, 0.0, 0.0, 0.0]
    fair = run(FairScheduler(), small_cluster_config, small_dfs_config,
               pooled_jobs(fast_profile, ["a", "b", "c", "d"]),
               arrivals, blocks=32)
    fifo = run(FifoScheduler(), small_cluster_config, small_dfs_config,
               pooled_jobs(fast_profile, ["a", "b", "c", "d"]),
               arrivals, blocks=32)
    fair_metrics = compute_metrics("Fair", fair.timelines)
    fifo_metrics = compute_metrics("FIFO", fifo.timelines)
    # No sharing: total work identical, so TET within a few percent.
    assert fair_metrics.tet == pytest.approx(fifo_metrics.tet, rel=0.1)


def test_jobs_complete_under_faults(small_cluster_config, small_dfs_config,
                                    fast_profile):
    from repro.mapreduce.faults import FaultModel
    driver = SimulationDriver(
        FairScheduler(), cluster_config=small_cluster_config,
        dfs_config=small_dfs_config,
        cost_model=CostModel(job_submit_overhead_s=0.0),
        fault_model=FaultModel(task_failure_prob=0.1, max_attempts=20, seed=9))
    driver.register_file("f", 64.0 * 24)
    driver.submit_all(pooled_jobs(fast_profile, ["a", "b"]), [0.0, 1.0])
    result = driver.run()
    assert all(t.is_complete for t in result.timelines.values())
