"""End-to-end S3 scheduler tests on the simulation driver."""

import pytest

from repro.common.config import ClusterConfig
from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.driver import SimulationDriver
from repro.mapreduce.job import JobSpec
from repro.metrics.measures import compute_metrics
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.s3 import S3Config, S3Scheduler


def run_s3(small_cluster_config, small_dfs_config, jobs, arrivals, *,
           blocks=16, config=None, cost=None, cluster_config=None):
    driver = SimulationDriver(
        S3Scheduler(config),
        cluster_config=cluster_config or small_cluster_config,
        dfs_config=small_dfs_config,
        cost_model=cost or CostModel(job_submit_overhead_s=0.0,
                                     subjob_overhead_s=0.0))
    driver.register_file("f", 64.0 * blocks)
    driver.submit_all(jobs, arrivals)
    return driver.run()


def test_single_job_completes(small_cluster_config, small_dfs_config,
                              fast_profile, job_factory):
    result = run_s3(small_cluster_config, small_dfs_config,
                    job_factory(fast_profile, 1), [0.0])
    assert all(t.is_complete for t in result.timelines.values())
    # 16 blocks / 8 slots = 2 iterations of 8 maps each.
    launches = result.tracer.instants(name="s3.subjob.launch")
    assert len(launches) == 2
    assert all(r.args["blocks"] == 8 for r in launches)


def test_shared_scan_batches_jobs(small_cluster_config, small_dfs_config,
                                  fast_profile, job_factory):
    result = run_s3(small_cluster_config, small_dfs_config,
                    job_factory(fast_profile, 3), [0.0, 0.0, 0.0], blocks=16)
    map_starts = result.tracer.instants(name="task.start.map")
    # One scan shared by all three jobs: 16 map tasks, each serving 3 jobs.
    assert len(map_starts) == 16
    assert all(r.args["jobs"] == 3 for r in map_starts)


def test_late_job_joins_next_iteration(small_cluster_config, small_dfs_config,
                                       fast_profile, job_factory):
    jobs = job_factory(fast_profile, 2)
    # Job 1 arrives while iteration 1 is in flight.
    result = run_s3(small_cluster_config, small_dfs_config, jobs,
                    [0.0, 0.5], blocks=32)
    launches = result.tracer.instants(name="s3.subjob.launch")
    # Iterations: j0 alone (1st), then shared until j0 done, then j1's tail.
    assert launches[0].args["jobs"] == 1
    assert launches[1].args["jobs"] == 2
    # j1 covered the whole file despite starting mid-scan.
    assert all(t.is_complete for t in result.timelines.values())


def test_circular_coverage_is_complete(small_cluster_config, small_dfs_config,
                                       fast_profile, job_factory):
    """Every job's map tasks cover every block exactly once."""
    jobs = job_factory(fast_profile, 3)
    result = run_s3(small_cluster_config, small_dfs_config, jobs,
                    [0.0, 2.0, 5.0], blocks=24)
    # Block coverage is asserted via job completion + no deadlock.
    assert all(t.is_complete for t in result.timelines.values())


def test_waiting_time_short_vs_fifo(small_cluster_config, small_dfs_config,
                                    fast_profile, job_factory):
    """The paper's core claim: S3 admits arriving jobs at the next segment
    boundary instead of after the running job."""
    arrivals = [0.0, 1.0, 2.0]
    s3_result = run_s3(small_cluster_config, small_dfs_config,
                       job_factory(fast_profile, 3), arrivals, blocks=32)
    fifo_driver = SimulationDriver(
        FifoScheduler(), cluster_config=small_cluster_config,
        dfs_config=small_dfs_config,
        cost_model=CostModel(job_submit_overhead_s=0.0))
    fifo_driver.register_file("f", 64.0 * 32)
    fifo_driver.submit_all(job_factory(fast_profile, 3), arrivals)
    fifo_result = fifo_driver.run()
    s3 = compute_metrics("S3", s3_result.timelines)
    fifo = compute_metrics("FIFO", fifo_result.timelines)
    assert s3.art < fifo.art
    assert s3.tet < fifo.tet
    assert s3.mean_waiting < fifo.mean_waiting


def test_subjob_overhead_delays_iterations(small_cluster_config,
                                           small_dfs_config, fast_profile,
                                           job_factory):
    cost = CostModel(job_submit_overhead_s=0.0, subjob_overhead_s=3.0)
    result = run_s3(small_cluster_config, small_dfs_config,
                    job_factory(fast_profile, 1), [0.0], blocks=16, cost=cost)
    launches = [r.ts for r in result.tracer.instants(name="s3.subjob.launch")]
    assert launches[0] == pytest.approx(3.0)
    # Second iteration launches one overhead after the first completes.
    first_maps_done = result.tracer.instants(name="s3.subjob.maps_done")[0].ts
    assert launches[1] == pytest.approx(first_maps_done + 3.0)


def test_reduce_overlaps_next_iteration(small_cluster_config, small_dfs_config,
                                        fast_profile, job_factory):
    result = run_s3(small_cluster_config, small_dfs_config,
                    job_factory(fast_profile, 1), [0.0], blocks=24)
    # Reduce of iteration 1 starts while iteration 2's maps run.
    reduce_starts = [r.ts for r in result.tracer.instants(
        name="task.start.reduce")]
    second_iter_map_start = [r.ts for r in result.tracer.instants(
        name="task.start.map")][8]
    assert min(reduce_starts) <= second_iter_map_start + 1e-6


def test_job_completes_only_after_final_reduce(small_cluster_config,
                                               small_dfs_config, fast_profile,
                                               job_factory):
    result = run_s3(small_cluster_config, small_dfs_config,
                    job_factory(fast_profile, 1), [0.0], blocks=16)
    complete = result.tracer.instants(name="job.complete",
                                      subject="j0")[-1].ts
    last_reduce = max(r.ts for r in result.tracer.instants(
        name="task.finish.reduce"))
    assert complete == pytest.approx(last_reduce)


def test_idle_then_new_arrival(small_cluster_config, small_dfs_config,
                               fast_profile, job_factory):
    """The loop drains, goes idle, then a later job restarts it."""
    jobs = job_factory(fast_profile, 2)
    result = run_s3(small_cluster_config, small_dfs_config, jobs,
                    [0.0, 500.0], blocks=16)
    assert all(t.is_complete for t in result.timelines.values())
    assert result.timeline("j1").first_launch >= 500.0


def test_multiple_files_round_robin(small_cluster_config, small_dfs_config,
                                    fast_profile):
    driver = SimulationDriver(
        S3Scheduler(), cluster_config=small_cluster_config,
        dfs_config=small_dfs_config,
        cost_model=CostModel(job_submit_overhead_s=0.0, subjob_overhead_s=0.0))
    driver.register_file("f1", 64.0 * 8)
    driver.register_file("f2", 64.0 * 8)
    jobs = [JobSpec(job_id="a", file_name="f1", profile=fast_profile),
            JobSpec(job_id="b", file_name="f2", profile=fast_profile)]
    driver.submit_all(jobs, [0.0, 0.0])
    result = driver.run()
    assert all(t.is_complete for t in result.timelines.values())
    files = {r.subject.split(":")[0] for r in result.tracer.instants(
        name="s3.subjob.launch")}
    assert files == {"f1", "f2"}


def test_heterogeneous_cluster_with_slot_check(small_dfs_config, fast_profile,
                                               job_factory):
    speeds = [1.0] * 7 + [0.25]
    cluster_config = ClusterConfig(num_nodes=8, rack_sizes=(4, 4),
                                   node_speeds=speeds)
    config = S3Config(slot_check_enabled=True, adaptive_segments=True,
                      slot_check_interval_s=2.0)
    result = run_s3(None, small_dfs_config, job_factory(fast_profile, 2),
                    [0.0, 1.0], blocks=64, config=config,
                    cluster_config=cluster_config)
    assert all(t.is_complete for t in result.timelines.values())
    # The checker eventually excluded the slow node at least once.
    checks = result.tracer.instants(name="s3.slotcheck")
    assert any(r.args["excluded"] > 0 for r in checks)


def test_custom_segment_size(small_cluster_config, small_dfs_config,
                             fast_profile, job_factory):
    config = S3Config(blocks_per_segment=4)
    result = run_s3(small_cluster_config, small_dfs_config,
                    job_factory(fast_profile, 1), [0.0], blocks=16,
                    config=config)
    launches = result.tracer.instants(name="s3.subjob.launch")
    assert len(launches) == 4
    assert all(r.args["blocks"] == 4 for r in launches)


def test_max_jobs_per_iteration_defers(small_cluster_config, small_dfs_config,
                                       fast_profile, job_factory):
    config = S3Config(max_jobs_per_iteration=1)
    result = run_s3(small_cluster_config, small_dfs_config,
                    job_factory(fast_profile, 2), [0.0, 0.0], blocks=16,
                    config=config)
    assert all(t.is_complete for t in result.timelines.values())
    launches = result.tracer.instants(name="s3.subjob.launch")
    assert all(r.args["jobs"] == 1 for r in launches)
    # Strictly sequential: j1 starts only after j0's scan ends.
    assert (result.timeline("j1").first_launch
            >= result.timeline("j0").first_launch)
