"""Priority-gated admission (the paper's Section VI future work).

The S3 Job Queue Manager admits waiting jobs by (priority, arrival).
Under ``max_jobs_per_iteration`` that becomes a priority-gated admission
policy: high-priority jobs join the circular scan first while the rest
queue, so the higher class sees the lower mean response time.
"""

import pytest

from repro.experiments.base import run_scheduler
from repro.mapreduce.job import JobSpec
from repro.mapreduce.profile import normal_wordcount
from repro.schedulers.s3 import S3Config, S3Scheduler
from repro.workloads.wordcount import CORPUS_FILE, CORPUS_SIZE_MB

CLASSES = (0, 1, 2)
PER_CLASS = 2


@pytest.fixture(scope="module")
def art_by_priority():
    """Mean response time per priority class under a cap of two jobs."""
    jobs = [JobSpec(job_id=f"p{priority}_{index}", file_name=CORPUS_FILE,
                    profile=normal_wordcount(), priority=priority)
            for priority in CLASSES for index in range(PER_CLASS)]
    _, result = run_scheduler(
        S3Scheduler(S3Config(max_jobs_per_iteration=2)), jobs,
        [0.0] * len(jobs), file_name=CORPUS_FILE, file_size_mb=CORPUS_SIZE_MB)
    return {priority: sum(result.timelines[j.job_id].response_time
                          for j in jobs if j.priority == priority) / PER_CLASS
            for priority in CLASSES}


def test_priority_classes_ordered(art_by_priority):
    """Higher priority -> lower (or equal) mean response time."""
    assert art_by_priority[2] <= art_by_priority[1] <= art_by_priority[0]
    assert art_by_priority[2] < art_by_priority[0]


def test_all_classes_measured(art_by_priority):
    assert set(art_by_priority) == set(CLASSES)
    assert all(v > 0 for v in art_by_priority.values())
