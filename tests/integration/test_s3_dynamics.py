"""Deeper S3 behaviours: dynamic sub-job adjustment, multi-file fairness,
and analytics consistency."""

import pytest

from repro.common.config import ClusterConfig
from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.driver import SimulationDriver
from repro.mapreduce.job import JobSpec
from repro.metrics.jobstats import job_phase_stats
from repro.schedulers.mrshare import MRShareScheduler
from repro.schedulers.s3 import S3Config, S3Scheduler


def make_driver(small_cluster_config, small_dfs_config, *, overhead=2.0,
                config=None):
    return SimulationDriver(
        S3Scheduler(config),
        cluster_config=small_cluster_config,
        dfs_config=small_dfs_config,
        cost_model=CostModel(job_submit_overhead_s=0.0,
                             subjob_overhead_s=overhead))


def test_arrival_during_armed_window_included(small_cluster_config,
                                              small_dfs_config, fast_profile):
    """Dynamic sub-job adjustment (Section IV-D.2): a job arriving while
    the next merged sub-job is armed-but-not-launched joins it."""
    driver = make_driver(small_cluster_config, small_dfs_config, overhead=2.0)
    driver.register_file("f", 64.0 * 16)
    jobs = [JobSpec(job_id=f"j{i}", file_name="f", profile=fast_profile)
            for i in range(2)]
    # j0 at t=0 arms the first iteration for t=2.0; j1 lands inside the
    # overhead window at t=1.0.
    driver.submit_all(jobs, [0.0, 1.0])
    result = driver.run()
    first = result.tracer.instants(name="s3.subjob.launch")[0]
    assert first.ts == pytest.approx(2.0)
    assert first.args["jobs"] == 2  # j1 was folded into the armed batch
    # Fully shared from the very first segment.
    stats = job_phase_stats(result)
    assert stats["j1"].sharing_fraction == 1.0


def test_arrival_after_launch_waits_for_next_boundary(small_cluster_config,
                                                      small_dfs_config,
                                                      fast_profile):
    driver = make_driver(small_cluster_config, small_dfs_config, overhead=0.5)
    driver.register_file("f", 64.0 * 16)
    jobs = [JobSpec(job_id=f"j{i}", file_name="f", profile=fast_profile)
            for i in range(2)]
    # j1 arrives while iteration 1 is running (launched at 0.5).
    driver.submit_all(jobs, [0.0, 1.0])
    result = driver.run()
    launches = result.tracer.instants(name="s3.subjob.launch")
    assert launches[0].args["jobs"] == 1
    assert launches[1].args["jobs"] == 2


def test_multi_file_round_robin_fairness(small_cluster_config,
                                         small_dfs_config, fast_profile):
    """Two files with one job each: iterations alternate between files."""
    driver = make_driver(small_cluster_config, small_dfs_config, overhead=0.0)
    driver.register_file("f1", 64.0 * 16)
    driver.register_file("f2", 64.0 * 16)
    jobs = [JobSpec(job_id="a", file_name="f1", profile=fast_profile),
            JobSpec(job_id="b", file_name="f2", profile=fast_profile)]
    driver.submit_all(jobs, [0.0, 0.0])
    result = driver.run()
    order = [r.subject.split(":")[0]
             for r in result.tracer.instants(name="s3.subjob.launch")]
    # Strict alternation: f1, f2, f1, f2 (2 iterations per file).
    assert order == ["f1", "f2", "f1", "f2"]
    # Neither job starves: completions within one iteration of each other.
    a_done = result.timeline("a").completed
    b_done = result.timeline("b").completed
    assert abs(a_done - b_done) < 0.5 * max(a_done, b_done)


def test_mrshare_jobstats_show_full_sharing(small_cluster_config,
                                            small_dfs_config, fast_profile):
    driver = SimulationDriver(
        MRShareScheduler.single_batch(3),
        cluster_config=small_cluster_config, dfs_config=small_dfs_config,
        cost_model=CostModel(job_submit_overhead_s=0.0))
    driver.register_file("f", 64.0 * 16)
    jobs = [JobSpec(job_id=f"j{i}", file_name="f", profile=fast_profile)
            for i in range(3)]
    driver.submit_all(jobs, [0.0, 5.0, 10.0])
    result = driver.run()
    stats = job_phase_stats(result)
    assert all(s.sharing_fraction == 1.0 for s in stats.values())
    # The first job's waiting time includes the batch-forming delay.
    assert stats["j0"].waiting_time >= 10.0


def test_adaptive_segments_shrink_to_available_slots(small_dfs_config,
                                                     fast_profile):
    """With slot checking excluding slow nodes, adaptive iterations use
    fewer blocks per launch."""
    speeds = [1.0] * 6 + [0.15, 0.15]
    cluster = ClusterConfig(num_nodes=8, rack_sizes=(4, 4),
                            node_speeds=speeds)
    config = S3Config(slot_check_enabled=True, adaptive_segments=True,
                      slot_check_interval_s=2.0)
    driver = SimulationDriver(
        S3Scheduler(config), cluster_config=cluster,
        dfs_config=small_dfs_config,
        cost_model=CostModel(job_submit_overhead_s=0.0, subjob_overhead_s=0.2))
    driver.register_file("f", 64.0 * 64)
    driver.submit_all([JobSpec(job_id="a", file_name="f",
                               profile=fast_profile)], [0.0])
    result = driver.run()
    sizes = {r.args["blocks"]
             for r in result.tracer.instants(name="s3.subjob.launch")}
    assert 8 in sizes           # full-cluster iterations before detection
    assert any(s < 8 for s in sizes)  # shrunk after exclusions kicked in
