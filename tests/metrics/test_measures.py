"""TET/ART metric computation tests."""

import pytest

from repro.common.errors import ExperimentError
from repro.mapreduce.job import JobTimeline
from repro.metrics.measures import compute_metrics


def timeline(job_id, submitted, started, completed):
    return JobTimeline(job_id=job_id, submitted=submitted,
                       first_launch=started, completed=completed)


def test_paper_example1_fifo():
    """FIFO in Example 1: TET 200, ART 140."""
    timelines = [timeline("j1", 0, 0, 100), timeline("j2", 20, 100, 200)]
    metrics = compute_metrics("FIFO", timelines)
    assert metrics.tet == 200
    assert metrics.art == 140
    assert metrics.max_response == 180
    assert metrics.mean_waiting == 40
    assert metrics.num_jobs == 2


def test_paper_example1_s3():
    """S3 in Example 1: TET 120, ART 100."""
    timelines = [timeline("j1", 0, 0, 100), timeline("j2", 20, 20, 120)]
    metrics = compute_metrics("S3", timelines)
    assert metrics.tet == 120
    assert metrics.art == 100


def test_accepts_mapping_or_iterable():
    timelines = [timeline("a", 0, 0, 10)]
    as_map = compute_metrics("x", {"a": timelines[0]})
    as_list = compute_metrics("x", timelines)
    assert as_map == as_list


def test_incomplete_job_rejected():
    incomplete = JobTimeline(job_id="a", submitted=0.0)
    with pytest.raises(ExperimentError, match="incomplete"):
        compute_metrics("x", [incomplete])


def test_empty_rejected():
    with pytest.raises(ExperimentError):
        compute_metrics("x", [])


def test_tet_uses_first_submission():
    timelines = [timeline("a", 50, 50, 100), timeline("b", 60, 70, 130)]
    assert compute_metrics("x", timelines).tet == 80


def test_no_first_launch_rejected():
    """A completed-but-never-launched set has no defined mean wait; a
    silent 0.0 would read as 'every job launched instantly'."""
    never_launched = JobTimeline(job_id="a", submitted=0.0,
                                 first_launch=None, completed=10.0)
    with pytest.raises(ExperimentError, match="first launch"):
        compute_metrics("x", [never_launched])


def test_partial_first_launch_uses_only_launched_jobs():
    timelines = [timeline("a", 0, 5, 10),
                 JobTimeline(job_id="b", submitted=0.0, completed=10.0)]
    metrics = compute_metrics("x", timelines)
    assert metrics.mean_waiting == 5.0
    assert metrics.num_jobs == 2
