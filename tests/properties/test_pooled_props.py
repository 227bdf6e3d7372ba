"""Property-based fairness tests for the pooled (Capacity/Fair) schedulers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import ClusterConfig, DfsConfig
from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.driver import SimulationDriver
from repro.mapreduce.job import JobSpec
from repro.mapreduce.profile import normal_wordcount
from repro.schedulers.pooled import FairScheduler, tag_pool

PROFILE = normal_wordcount().with_(num_reduce_tasks=2, reduce_total_s=1.0)


def run_fair(pool_assignment: list[int], blocks: int):
    driver = SimulationDriver(
        FairScheduler(),
        cluster_config=ClusterConfig(num_nodes=8, rack_sizes=(4, 4)),
        dfs_config=DfsConfig(block_size_mb=64.0),
        cost_model=CostModel(job_submit_overhead_s=0.0))
    driver.register_file("f", 64.0 * blocks)
    jobs = [JobSpec(job_id=f"j{i}", file_name="f", profile=PROFILE,
                    tag=tag_pool(f"pool{p}"))
            for i, p in enumerate(pool_assignment)]
    driver.submit_all(jobs, [0.0] * len(jobs))
    return driver.run(), jobs


@given(pools=st.lists(st.integers(0, 2), min_size=2, max_size=5),
       blocks=st.integers(8, 32))
@settings(max_examples=25, deadline=None)
def test_all_pools_complete(pools, blocks):
    result, jobs = run_fair(pools, blocks)
    assert all(t.is_complete for t in result.timelines.values())


@given(blocks=st.integers(16, 48))
@settings(max_examples=15, deadline=None)
def test_two_equal_pools_finish_together(blocks):
    """Identical jobs in two fair pools: completions within one wave."""
    result, jobs = run_fair([0, 1], blocks)
    done = [result.timeline(j.job_id).completed for j in jobs]
    wave = (PROFILE.task_startup_s + 64.0 / PROFILE.scan_rate_mb_s
            + 64.0 * PROFILE.map_cpu_s_per_mb)
    assert abs(done[0] - done[1]) <= 2 * wave + 1e-6


@given(pools=st.lists(st.integers(0, 1), min_size=2, max_size=4),
       blocks=st.integers(8, 24))
@settings(max_examples=20, deadline=None)
def test_every_job_scans_every_block(pools, blocks):
    """No sharing in the pooled baselines: per-job map counts equal the
    file size exactly."""
    result, jobs = run_fair(pools, blocks)
    for job in jobs:
        assert result.job_map_tasks[job.job_id] == blocks
        assert result.job_shared_map_tasks.get(job.job_id, 0) == 0
