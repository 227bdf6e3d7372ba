"""The paper's two performance metrics (Section III.B).

* **TET** (total execution time): interval between the first job's
  submission and the last job's completion.  Small TET = high degree of
  sharing.
* **ART** (average response time): mean submission-to-completion interval.
  Small ART = jobs start (and finish) soon after arriving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..common.errors import ExperimentError
from ..mapreduce.job import JobTimeline


@dataclass(frozen=True)
class ScheduleMetrics:
    """TET/ART summary of one scheduler run."""

    scheduler: str
    tet: float
    art: float
    max_response: float
    mean_waiting: float
    num_jobs: int


def compute_metrics(scheduler: str,
                    timelines: Mapping[str, JobTimeline] | Iterable[JobTimeline],
                    ) -> ScheduleMetrics:
    """Compute TET/ART from per-job timelines.

    Accepts either the driver's ``{job_id: timeline}`` mapping or a plain
    iterable of timelines.
    """
    if isinstance(timelines, Mapping):
        items = list(timelines.values())
    else:
        items = list(timelines)
    if not items:
        raise ExperimentError("no job timelines to evaluate")
    incomplete = [t.job_id for t in items if not t.is_complete]
    if incomplete:
        raise ExperimentError(f"incomplete jobs in metrics: {incomplete}")
    first_submit = min(t.submitted for t in items)
    last_complete = max(t.completed for t in items)  # type: ignore[type-var]
    responses = [t.response_time for t in items]
    waits = [t.waiting_time for t in items if t.first_launch is not None]
    if not waits:
        # A mean over zero waits is undefined; reporting 0.0 here would be
        # indistinguishable from "every job launched instantly".
        raise ExperimentError(
            f"{scheduler}: no job recorded a first launch; "
            "mean_waiting is undefined")
    return ScheduleMetrics(
        scheduler=scheduler,
        tet=last_complete - first_submit,
        art=sum(responses) / len(responses),
        max_response=max(responses),
        mean_waiting=sum(waits) / len(waits),
        num_jobs=len(items),
    )
