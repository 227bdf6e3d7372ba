"""Cancellation/detach semantics of ScanLoop, S3JobState and the JQM.

These back the scheduler-service's cancel path and the state audit: a
job that never launches (admitted-then-cancelled, or still waiting when
the service drains) must not strand ``loop.waiting`` entries or leave
``has_work()`` permanently true.
"""

import pytest

from repro.common.config import DfsConfig
from repro.common.errors import SchedulingError
from repro.dfs.namenode import NameNode
from repro.dfs.placement import RoundRobinPlacement
from repro.mapreduce.job import JobSpec
from repro.mapreduce.profile import normal_wordcount
from repro.schedulers.s3.jobqueue import JobQueueManager
from repro.schedulers.s3.scanloop import ScanLoop


def make_namenode():
    return NameNode(DfsConfig(block_size_mb=64.0),
                    RoundRobinPlacement(["n0", "n1", "n2", "n3"]))


def make_loop(num_blocks=12):
    namenode = make_namenode()
    dfs_file = namenode.create_file("f", 64.0 * num_blocks)
    return ScanLoop(dfs_file)


def spec(job_id, priority=0):
    return JobSpec(job_id=job_id, file_name="f",
                   profile=normal_wordcount(), priority=priority)


def test_cancel_waiting_job_leaves_no_state():
    loop = make_loop()
    loop.add_job(spec("a"), 0.0)
    state = loop.cancel("a")
    assert state is not None and state.cancelled
    assert loop.waiting == [] and loop.active == []
    assert not loop.has_work()
    assert loop.build_iteration(4) is None


def test_cancel_active_job_mid_scan():
    loop = make_loop(num_blocks=12)
    loop.add_job(spec("a"), 0.0)
    loop.add_job(spec("b"), 0.0)
    loop.build_iteration(4)  # both admitted, 4 blocks covered
    state = loop.cancel("a")
    assert state is not None and state.covered == 4
    assert [j.job_id for j in loop.active] == ["b"]
    # The survivor still completes its full cycle.
    covered = 4
    while loop.has_work():
        iteration = loop.build_iteration(4)
        covered += len(iteration.chunk)
        assert iteration.participants == ("b",)
    assert covered == 12
    assert not loop.has_work()


def test_cancel_unknown_or_finished_returns_none():
    loop = make_loop(num_blocks=4)
    loop.add_job(spec("a"), 0.0)
    assert loop.cancel("ghost") is None
    iteration = loop.build_iteration(4)
    assert iteration.finishing_jobs == ("a",)
    # Scan complete: the job has left the loop; cancel is a no-op.
    assert loop.cancel("a") is None


def test_cancelled_state_is_terminal():
    loop = make_loop()
    state = loop.add_job(spec("a"), 0.0)
    loop.cancel("a")
    with pytest.raises(SchedulingError, match="cancelled"):
        state.admit(0)
    loop2 = make_loop()
    active = loop2.add_job(spec("b"), 0.0)
    loop2.build_iteration(4)
    loop2.cancel("b")
    with pytest.raises(SchedulingError, match="cancelled"):
        active.advance(1)


def test_cancel_clears_last_admitted():
    loop = make_loop()
    loop.add_job(spec("a"), 0.0)
    loop.add_job(spec("b"), 1.0)
    loop.build_iteration(4)
    assert set(loop.last_admitted) == {"a", "b"}
    loop.cancel("a")
    assert loop.last_admitted == ("b",)


def test_duplicate_live_job_id_rejected():
    loop = make_loop()
    loop.add_job(spec("a"), 0.0)
    with pytest.raises(SchedulingError, match="unique"):
        loop.add_job(spec("a"), 1.0)
    # After the first copy is gone the id is reusable.
    loop.cancel("a")
    loop.add_job(spec("a"), 2.0)


def test_capped_waiting_job_cancelled_before_admission():
    """Admission-cap interaction: reject-at-drain leaves nothing behind."""
    loop = make_loop(num_blocks=8)
    loop.add_job(spec("a"), 0.0)
    loop.add_job(spec("b"), 1.0)
    loop.build_iteration(4, max_jobs=1)
    assert [j.job_id for j in loop.waiting] == ["b"]
    assert loop.cancel("b") is not None
    assert loop.waiting == []
    # Drain the survivor; has_work must go false (no stranded entries).
    while loop.has_work():
        loop.build_iteration(4, max_jobs=1)
    assert not loop.has_work()


def test_jobqueue_routes_find_and_cancel():
    namenode = make_namenode()
    namenode.create_file("f", 64.0 * 8)
    namenode.create_file("g", 64.0 * 8)
    jqm = JobQueueManager(namenode, blocks_per_segment=4)
    jqm.admit(spec("a"), 0.0)
    jqm.admit(JobSpec(job_id="b", file_name="g",
                      profile=normal_wordcount()), 0.0)
    assert jqm.find("b").job_id == "b"
    assert jqm.find("ghost") is None
    assert jqm.cancel("ghost") is None
    assert jqm.cancel("b") is not None
    assert jqm.find("b") is None
    assert jqm.pending_jobs() == 1
    jqm.cancel("a")
    assert not jqm.has_work()
    assert jqm.next_loop_with_work() is None
