"""Task-duration jitter tests (robustness to non-deterministic durations)."""

import pytest

from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.driver import SimulationDriver
from repro.metrics.measures import compute_metrics
from repro.metrics.validate import validate_trace
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.s3 import S3Scheduler


def run(scheduler, small_cluster_config, small_dfs_config, jobs, *,
        jitter=0.0, seed=None, arrivals=None):
    driver = SimulationDriver(
        scheduler, cluster_config=small_cluster_config,
        dfs_config=small_dfs_config,
        cost_model=CostModel(job_submit_overhead_s=0.0, subjob_overhead_s=0.0,
                             duration_jitter=jitter),
        jitter_seed=seed)
    driver.register_file("f", 64.0 * 16)
    driver.submit_all(jobs, arrivals or [0.0] * len(jobs))
    return driver.run()


def test_zero_jitter_is_deterministic(small_cluster_config, small_dfs_config,
                                      fast_profile, job_factory):
    a = run(FifoScheduler(), small_cluster_config, small_dfs_config,
            job_factory(fast_profile, 1))
    b = run(FifoScheduler(), small_cluster_config, small_dfs_config,
            job_factory(fast_profile, 1))
    assert a.end_time == b.end_time


def test_jitter_spreads_durations(small_cluster_config, small_dfs_config,
                                  fast_profile, job_factory):
    result = run(FifoScheduler(), small_cluster_config, small_dfs_config,
                 job_factory(fast_profile, 1), jitter=0.2, seed=1)
    durations = {round(r.ts, 6)
                 for r in result.tracer.instants(name="task.finish.map")}
    # Without jitter every wave finishes simultaneously; with it they spread.
    assert len(durations) > 4


def test_jitter_deterministic_per_seed(small_cluster_config, small_dfs_config,
                                       fast_profile, job_factory):
    a = run(S3Scheduler(), small_cluster_config, small_dfs_config,
            job_factory(fast_profile, 2), jitter=0.15, seed=7)
    b = run(S3Scheduler(), small_cluster_config, small_dfs_config,
            job_factory(fast_profile, 2), jitter=0.15, seed=7)
    c = run(S3Scheduler(), small_cluster_config, small_dfs_config,
            job_factory(fast_profile, 2), jitter=0.15, seed=8)
    assert a.end_time == b.end_time
    assert a.end_time != c.end_time


@pytest.mark.parametrize("scheduler_factory", [FifoScheduler, S3Scheduler],
                         ids=["fifo", "s3"])
def test_jittered_runs_stay_valid(scheduler_factory, small_cluster_config,
                                  small_dfs_config, fast_profile,
                                  job_factory):
    result = run(scheduler_factory(), small_cluster_config, small_dfs_config,
                 job_factory(fast_profile, 3), jitter=0.25, seed=3,
                 arrivals=[0.0, 1.0, 2.0])
    assert all(t.is_complete for t in result.timelines.values())
    validate_trace(result.tracer, small_cluster_config).raise_if_invalid()


def test_jitter_perturbs_metrics_modestly(small_cluster_config,
                                          small_dfs_config, fast_profile,
                                          job_factory):
    base = run(S3Scheduler(), small_cluster_config, small_dfs_config,
               job_factory(fast_profile, 2))
    noisy = run(S3Scheduler(), small_cluster_config, small_dfs_config,
                job_factory(fast_profile, 2), jitter=0.1, seed=5)
    base_m = compute_metrics("S3", base.timelines)
    noisy_m = compute_metrics("S3", noisy.timelines)
    assert noisy_m.tet == pytest.approx(base_m.tet, rel=0.3)
    assert noisy_m.tet != base_m.tet
