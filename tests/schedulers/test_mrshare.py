"""MRShare batch scheduler tests."""

import pytest

from repro.common.errors import SchedulingError
from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.driver import SimulationDriver
from repro.schedulers.mrshare import MRShareScheduler


def run_mrshare(scheduler, small_cluster_config, small_dfs_config, jobs,
                arrivals, blocks=16):
    driver = SimulationDriver(
        scheduler, cluster_config=small_cluster_config,
        dfs_config=small_dfs_config,
        cost_model=CostModel(job_submit_overhead_s=0.0))
    driver.register_file("f", 64.0 * blocks)
    driver.submit_all(jobs, arrivals)
    return driver.run()


def test_grouping_validation():
    with pytest.raises(SchedulingError):
        MRShareScheduler([])
    with pytest.raises(SchedulingError, match="non-empty"):
        MRShareScheduler([[0], []])
    with pytest.raises(SchedulingError, match="overlap"):
        MRShareScheduler([[0, 1], [1, 2]])
    with pytest.raises(SchedulingError, match="partition"):
        MRShareScheduler([[0, 2]])


def test_factory_variants():
    assert MRShareScheduler.single_batch(10).name == "MRS1"
    assert MRShareScheduler.paper_two_batches(10).name == "MRS2"
    assert MRShareScheduler.paper_three_batches(10).name == "MRS3"
    with pytest.raises(SchedulingError):
        MRShareScheduler.paper_two_batches(3)


def test_batch_waits_for_all_members(small_cluster_config, small_dfs_config,
                                     fast_profile, job_factory):
    jobs = job_factory(fast_profile, 2)
    result = run_mrshare(MRShareScheduler.single_batch(2),
                         small_cluster_config, small_dfs_config,
                         jobs, [0.0, 30.0])
    # No task can start before the last member arrives.
    first_map = min(r.ts
                    for r in result.tracer.instants(name="task.start.map"))
    assert first_map >= 30.0
    # Both jobs complete at the same instant (batch completion).
    assert (result.timeline("j0").completed
            == result.timeline("j1").completed)


def test_batch_shares_scan(small_cluster_config, small_dfs_config,
                           fast_profile, job_factory):
    jobs = job_factory(fast_profile, 3)
    result = run_mrshare(MRShareScheduler.single_batch(3),
                         small_cluster_config, small_dfs_config,
                         jobs, [0.0] * 3, blocks=8)
    map_starts = result.tracer.instants(name="task.start.map")
    assert len(map_starts) == 8  # one scan for all three jobs
    assert all(r.args["jobs"] == 3 for r in map_starts)


def test_combined_tasks_cost_more(small_cluster_config, small_dfs_config,
                                  fast_profile, job_factory):
    single = run_mrshare(MRShareScheduler.single_batch(1),
                         small_cluster_config, small_dfs_config,
                         job_factory(fast_profile, 1), [0.0], blocks=8)
    batch = run_mrshare(MRShareScheduler.single_batch(4),
                        small_cluster_config, small_dfs_config,
                        job_factory(fast_profile, 4), [0.0] * 4, blocks=8)
    t1 = single.tracer.instants(name="task.start.map")[0].args["duration"]
    t4 = batch.tracer.instants(name="task.start.map")[0].args["duration"]
    assert t4 > t1
    # beta = 0.1: 4 jobs -> cpu factor 1.3 on the 0.5s cpu share.
    assert t4 - t1 == pytest.approx(0.5 * 0.3, abs=1e-6)


def test_batches_run_in_ready_order(small_cluster_config, small_dfs_config,
                                    fast_profile, job_factory):
    jobs = job_factory(fast_profile, 4)
    scheduler = MRShareScheduler([[0, 1], [2, 3]])
    result = run_mrshare(scheduler, small_cluster_config, small_dfs_config,
                         jobs, [0.0, 1.0, 2.0, 3.0], blocks=16)
    b0_done = result.timeline("j0").completed
    b1_done = result.timeline("j2").completed
    assert b0_done < b1_done


def test_unexpected_extra_job_rejected(small_cluster_config, small_dfs_config,
                                       fast_profile, job_factory):
    jobs = job_factory(fast_profile, 2)
    driver = SimulationDriver(MRShareScheduler([[0]]),
                              cluster_config=small_cluster_config,
                              dfs_config=small_dfs_config)
    driver.register_file("f", 64.0)
    driver.submit_all(jobs, [0.0, 1.0])
    with pytest.raises(SchedulingError, match="not covered"):
        driver.run()


def test_mrshare_tet_beats_fifo_when_dense(small_cluster_config,
                                           small_dfs_config, fast_profile,
                                           job_factory):
    """The core MRShare claim: batching dense jobs shrinks TET."""
    from repro.metrics.measures import compute_metrics
    from repro.schedulers.fifo import FifoScheduler

    arrivals = [0.0] * 4
    fifo_result = run_mrshare(FifoScheduler(), small_cluster_config,
                              small_dfs_config, job_factory(fast_profile, 4),
                              arrivals, blocks=16)
    mrs_result = run_mrshare(MRShareScheduler.single_batch(4),
                             small_cluster_config, small_dfs_config,
                             job_factory(fast_profile, 4), arrivals, blocks=16)
    fifo = compute_metrics("FIFO", fifo_result.timelines)
    mrs = compute_metrics("MRS1", mrs_result.timelines)
    assert mrs.tet < fifo.tet
