"""Direct ExecUnit mechanics tests (FIFO/MRShare's shared engine)."""

from repro.common.config import DfsConfig
from repro.dfs.namenode import NameNode
from repro.dfs.placement import RoundRobinPlacement
from repro.mapreduce.job import JobSpec
from repro.mapreduce.profile import normal_wordcount
from repro.schedulers.unitqueue import ExecUnit


def make_unit(num_blocks=8, num_jobs=2, reduce_tasks=4):
    namenode = NameNode(DfsConfig(block_size_mb=64.0),
                        RoundRobinPlacement(["n0", "n1"]))
    dfs_file = namenode.create_file("f", 64.0 * num_blocks)
    profile = normal_wordcount().with_(num_reduce_tasks=reduce_tasks)
    jobs = tuple(JobSpec(job_id=f"j{i}", file_name="f", profile=profile)
                 for i in range(num_jobs))
    return ExecUnit(work_id="u0", jobs=jobs, profile=profile,
                    dfs_file=dfs_file, ready_time=0.0)


def test_initial_accounting():
    unit = make_unit(num_blocks=8, num_jobs=3, reduce_tasks=5)
    assert unit.maps_outstanding == 8
    assert unit.reduces_to_launch == 5
    assert unit.reduces_outstanding == 5
    assert len(unit.jobs) == 3
    assert unit.job_ids == ("j0", "j1", "j2")
    assert not unit.maps_all_assigned
    assert not unit.maps_all_complete
    assert not unit.done


def test_assignment_progress():
    unit = make_unit(num_blocks=2)
    assert len(unit.assigner) == 2
    unit.assigner.pending.clear()
    assert unit.maps_all_assigned
    # Assignment is not completion.
    assert not unit.maps_all_complete


def test_reduce_task_count_uses_max_member():
    namenode = NameNode(DfsConfig(block_size_mb=64.0),
                        RoundRobinPlacement(["n0"]))
    dfs_file = namenode.create_file("f", 64.0)
    small = normal_wordcount().with_(num_reduce_tasks=2)
    big = normal_wordcount().with_(num_reduce_tasks=9)
    unit = ExecUnit(work_id="u", jobs=(
        JobSpec(job_id="a", file_name="f", profile=small),
        JobSpec(job_id="b", file_name="f", profile=big)),
        profile=big, dfs_file=dfs_file, ready_time=0.0)
    assert unit.reduces_to_launch == 9
