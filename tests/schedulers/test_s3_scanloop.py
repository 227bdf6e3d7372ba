"""ScanLoop (circular merged sub-job construction) tests."""

import pytest

from repro.common.config import DfsConfig
from repro.common.errors import SchedulingError
from repro.dfs.namenode import NameNode
from repro.dfs.placement import RoundRobinPlacement
from repro.mapreduce.job import JobSpec
from repro.mapreduce.profile import heavy_wordcount, normal_wordcount
from repro.schedulers.s3.scanloop import ScanLoop


def make_loop(num_blocks=12):
    namenode = NameNode(DfsConfig(block_size_mb=64.0),
                        RoundRobinPlacement(["n0", "n1", "n2", "n3"]))
    dfs_file = namenode.create_file("f", 64.0 * num_blocks)
    return ScanLoop(dfs_file)


def spec(job_id, priority=0, profile=None):
    return JobSpec(job_id=job_id, file_name="f",
                   profile=profile or normal_wordcount(), priority=priority)


def test_empty_loop_builds_nothing():
    loop = make_loop()
    assert loop.build_iteration(4) is None
    assert not loop.has_work()


def test_single_job_full_cycle():
    loop = make_loop(num_blocks=12)
    loop.add_job(spec("a"), 0.0)
    chunks = []
    finishing = []
    while True:
        iteration = loop.build_iteration(4)
        if iteration is None:
            break
        chunks.append(iteration.chunk)
        finishing.extend(iteration.finishing_jobs)
    assert chunks == [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)]
    assert finishing == ["a"]
    assert not loop.has_work()


def test_job_admitted_mid_cycle_wraps():
    loop = make_loop(num_blocks=8)
    loop.add_job(spec("a"), 0.0)
    loop.build_iteration(4)                 # a covers 0-3
    loop.add_job(spec("b"), 1.0)
    it2 = loop.build_iteration(4)           # a covers 4-7 (done), b covers 4-7
    assert it2.participants == ("a", "b")
    assert it2.finishing_jobs == ("a",)
    it3 = loop.build_iteration(4)           # b wraps: 0-3 (done)
    assert it3.participants == ("b",)
    assert it3.finishing_jobs == ("b",)
    assert it3.chunk == (0, 1, 2, 3)
    assert loop.build_iteration(4) is None


def test_per_block_batches_in_final_partial_chunk():
    loop = make_loop(num_blocks=8)
    loop.add_job(spec("a"), 0.0)
    loop.build_iteration(2)                 # a: 0-1
    loop.add_job(spec("b"), 1.0)
    loop.build_iteration(2)                 # a: 2-3, b: 2-3
    loop.build_iteration(2)                 # 4-5
    loop.build_iteration(2)                 # 6-7, a done
    it = loop.build_iteration(4)            # b needs 0-1 only
    assert it.chunk == (0, 1)
    assert it.participants == ("b",)


def test_mixed_remaining_prefix_rule():
    """A nearly-done job participates only in the chunk's prefix."""
    loop = make_loop(num_blocks=8)
    loop.add_job(spec("a"), 0.0)
    loop.build_iteration(3)                 # a: 0-2, pointer=3
    loop.add_job(spec("b"), 1.0)
    # a remaining 5, b remaining 8 -> chunk capped at file end (5 blocks left)
    it = loop.build_iteration(8)
    assert it.chunk == (3, 4, 5, 6, 7)
    assert len(it.block_jobs[3]) == 2
    assert len(it.block_jobs[7]) == 2
    assert it.finishing_jobs == ("a",)


def test_chunk_never_wraps_file_end():
    loop = make_loop(num_blocks=10)
    loop.add_job(spec("a"), 0.0)
    loop.build_iteration(4)                 # 0-3
    loop.build_iteration(4)                 # 4-7
    it = loop.build_iteration(4)            # 8-9 (ragged, no wrap)
    assert it.chunk == (8, 9)


def test_admission_cap_defers_new_jobs():
    loop = make_loop(num_blocks=8)
    for name in ("a", "b", "c"):
        loop.add_job(spec(name), 0.0)
    it = loop.build_iteration(4, max_jobs=2)
    assert it.batch_size == 2
    assert len(loop.waiting) == 1


def test_admission_cap_prefers_priority():
    loop = make_loop(num_blocks=8)
    loop.add_job(spec("low", priority=0), 0.0)
    loop.add_job(spec("high", priority=5), 1.0)
    it = loop.build_iteration(4, max_jobs=1)
    assert it.participants == ("high",)
    assert loop.waiting[0].job_id == "low"


def test_file_fraction():
    loop = make_loop(num_blocks=8)
    loop.add_job(spec("a"), 0.0)
    it = loop.build_iteration(4)
    assert it.file_fraction == pytest.approx(0.5)


def test_iteration_profile_takes_most_expensive():
    loop = make_loop(num_blocks=4)
    loop.add_job(spec("a"), 0.0)
    loop.add_job(spec("h", profile=heavy_wordcount()), 0.0)
    it = loop.build_iteration(4)
    assert it.profile.name == "wordcount-heavy"
    assert it.profile_for(0).name == "wordcount-heavy"


def test_invalid_chunk_size():
    loop = make_loop()
    with pytest.raises(SchedulingError):
        loop.build_iteration(0)
