"""S3 per-job scan state tests."""

import pytest

from repro.common.errors import SchedulingError
from repro.mapreduce.job import JobSpec
from repro.mapreduce.profile import normal_wordcount
from repro.schedulers.s3.state import S3JobState


def make_state(total=10):
    spec = JobSpec(job_id="j", file_name="f", profile=normal_wordcount())
    return S3JobState(spec=spec, total_blocks=total, arrival_time=0.0)


def test_initial_state():
    state = make_state()
    assert not state.admitted
    assert state.remaining == 10
    assert state.remaining
    assert state.covered_blocks() == set()


def test_admit_sets_start():
    state = make_state()
    state.admit(7)
    assert state.admitted and state.start_block == 7


def test_double_admit_rejected():
    state = make_state()
    state.admit(0)
    with pytest.raises(SchedulingError, match="twice"):
        state.admit(1)


def test_admit_range_checked():
    with pytest.raises(SchedulingError):
        make_state().admit(10)


def test_advance_before_admit_rejected():
    with pytest.raises(SchedulingError):
        make_state().advance(1)


def test_advance_and_wraparound_coverage():
    state = make_state(total=10)
    state.admit(7)
    state.advance(3)   # blocks 7,8,9
    assert state.covered_blocks() == {7, 8, 9}
    state.advance(4)   # wraps: 0,1,2,3
    assert state.covered_blocks() == {7, 8, 9, 0, 1, 2, 3}
    state.advance(3)
    assert not state.remaining
    assert state.covered_blocks() == set(range(10))


def test_over_advance_rejected():
    state = make_state(total=4)
    state.admit(0)
    with pytest.raises(SchedulingError):
        state.advance(5)


def test_zero_blocks_rejected():
    spec = JobSpec(job_id="j", file_name="f", profile=normal_wordcount())
    with pytest.raises(SchedulingError):
        S3JobState(spec=spec, total_blocks=0, arrival_time=0.0)
