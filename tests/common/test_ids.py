"""Identifier-format tests."""

from repro.common import ids


def test_job_id_format():
    assert ids.job_id(3) == "job_0003"


def test_map_task_id_format():
    assert ids.map_task_id("job_0001", 120) == "job_0001.map_00120"


def test_reduce_task_id_format():
    assert ids.reduce_task_id("batch_0002", 7) == "batch_0002.red_0007"


def test_attempt_id_format():
    task = ids.map_task_id("job_0000", 1)
    assert ids.attempt_id(task, 0).endswith(".attempt_0")


def test_node_rack_block_ids():
    assert ids.node_id(7) == "node_007"
    assert ids.rack_id(2) == "rack_2"
    assert ids.block_id("corpus.txt", 42) == "corpus.txt#blk_00042"
