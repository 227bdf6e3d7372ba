"""TaskLaunch / LocalityStats tests."""

import pytest

from repro.mapreduce.task import LocalityStats, TaskKind, TaskLaunch


def make_launch(**kwargs):
    defaults = dict(attempt_id="a", kind=TaskKind.MAP, node_id="n0",
                    duration=1.0, job_ids=("j1",))
    defaults.update(kwargs)
    return TaskLaunch(**defaults)


def test_negative_duration_rejected():
    with pytest.raises(ValueError):
        make_launch(duration=-1.0)


def test_no_jobs_rejected():
    with pytest.raises(ValueError):
        make_launch(job_ids=())


def test_batch_size():
    assert make_launch(job_ids=("a", "b", "c")).batch_size == 3


def test_locality_stats_counts_maps_only():
    stats = LocalityStats()
    stats.observe(make_launch(local=True))
    stats.observe(make_launch(local=False))
    stats.observe(make_launch(kind=TaskKind.REDUCE, local=False))
    assert stats.local == 1
    assert stats.remote == 1
    assert stats.total == 2
