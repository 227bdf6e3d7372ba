"""The shared dispatch path refuses what no policy can have launched."""

import pytest

from repro.common.errors import SchedulingError
from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.driver import SimulationDriver
from repro.mapreduce.job import JobSpec
from repro.mapreduce.task import TaskKind, TaskLaunch
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.mrshare import MRShareScheduler
from repro.schedulers.pooled import CapacityScheduler, FairScheduler, tag_pool
from repro.schedulers.s3 import S3Scheduler

POLICIES = {
    "fifo": FifoScheduler,
    "mrs1": lambda: MRShareScheduler.single_batch(3),
    "capacity": lambda: CapacityScheduler({"a": 0.5, "b": 0.5}),
    "fair": FairScheduler,
    "s3": S3Scheduler,
}


def finished_run(scheduler, small_cluster_config, small_dfs_config,
                 fast_profile):
    """Run three jobs to the end; return the last map and reduce launches."""
    completed: list[TaskLaunch] = []
    deliver = scheduler.on_task_complete

    def record(launch, now):
        completed.append(launch)
        deliver(launch, now)

    scheduler.on_task_complete = record
    driver = SimulationDriver(
        scheduler, cluster_config=small_cluster_config,
        dfs_config=small_dfs_config,
        cost_model=CostModel(job_submit_overhead_s=0.0))
    driver.register_file("f", 64.0 * 12)
    driver.submit_all(
        [JobSpec(job_id=f"j{i}", file_name="f", profile=fast_profile,
                 tag=tag_pool("ab"[i % 2])) for i in range(3)],
        [0.0, 5.0, 10.0])
    result = driver.run()
    assert all(t.is_complete for t in result.timelines.values())
    last = {launch.kind: launch for launch in completed}
    return last[TaskKind.MAP], last[TaskKind.REDUCE]


@pytest.mark.parametrize("policy", list(POLICIES))
def test_dispatch_error_paths(policy, small_cluster_config, small_dfs_config,
                              fast_profile):
    scheduler = POLICIES[policy]()
    last_map, last_reduce = finished_run(
        scheduler, small_cluster_config, small_dfs_config, fast_profile)
    for launch in (last_map, last_reduce):
        with pytest.raises(SchedulingError, match="over-completion"):
            scheduler.on_task_complete(launch, 1e6)

    node = next(iter(scheduler.ctx.cluster))
    for kind in TaskKind:
        foreign = TaskLaunch(
            attempt_id="elsewhere", kind=kind, node_id=node.node_id,
            duration=1.0, job_ids=("j0",),
            block_index=0 if kind is TaskKind.MAP else None,
            payload=object())
        with pytest.raises(SchedulingError, match="foreign task"):
            scheduler.on_task_complete(foreign, 1e6)
        with pytest.raises(SchedulingError, match="foreign task"):
            scheduler.on_task_failed(foreign, 1e6)
        assert scheduler.backup_launch(foreign, node, 1e6) is None

    if policy == "s3":
        with pytest.raises(SchedulingError,
                           match="outside the current iteration"):
            scheduler.on_task_failed(last_map, 1e6)
