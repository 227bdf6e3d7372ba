"""MRShare-style file-based shared-scan baseline (Nykiel et al., PVLDB'10).

Jobs are grouped into pre-declared *batches*.  A batch only becomes
executable once **all** of its member jobs have been submitted; it then runs
as a single combined job — one scan of the file feeding every member's map
function — under the overhead model calibrated to the paper's Figure 3.

The experiments use the paper's three variants over a 10-job workload
(Section V.D):

* ``MRS1`` (SingleBatch): all 10 jobs in one batch;
* ``MRS2`` (TwoBatches): jobs 1-6 and jobs 7-10;
* ``MRS3`` (ThreeBatches): jobs 1-3, 4-6 and 7-10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..common.errors import SchedulingError
from ..mapreduce.combined import make_batch
from ..mapreduce.job import JobSpec
from .unitqueue import ExecUnit, UnitQueueScheduler


@dataclass
class _PendingBatch:
    """A declared batch collecting its member jobs as they arrive."""

    batch_index: int
    expected: int
    members: list[JobSpec] = field(default_factory=list)
    launched: bool = False

    @property
    def complete(self) -> bool:
        return len(self.members) == self.expected


class MRShareScheduler(UnitQueueScheduler):
    """Batch scheduler parameterised by a grouping of arrival indices.

    Parameters
    ----------
    groups:
        Partition of the arrival sequence into batches, e.g.
        ``[[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]``.  Group ``g`` collects the
        jobs whose arrival order index falls in ``groups[g]``.  MRShare
        assumes query patterns are known in advance (the assumption the
        paper criticises), so declaring the grouping up front is faithful.
    """

    def __init__(self, groups: Sequence[Sequence[int]], *,
                 label: str | None = None) -> None:
        super().__init__()
        if not groups or any(len(g) == 0 for g in groups):
            raise SchedulingError("MRShare groups must be non-empty")
        flat = [index for group in groups for index in group]
        if len(flat) != len(set(flat)):
            raise SchedulingError("MRShare groups overlap")
        if sorted(flat) != list(range(len(flat))):
            raise SchedulingError(
                "MRShare groups must partition arrival indices 0..n-1")
        self.name = label or f"MRShare-{len(groups)}"
        self._group_of: dict[int, int] = {
            index: g for g, group in enumerate(groups) for index in group}
        self._batches = [
            _PendingBatch(batch_index=g, expected=len(group))
            for g, group in enumerate(groups)]
        self._arrival_counter = 0

    @classmethod
    def single_batch(cls, num_jobs: int) -> "MRShareScheduler":
        """MRS1: one batch of everything."""
        return cls([list(range(num_jobs))], label="MRS1")

    @classmethod
    def paper_two_batches(cls, num_jobs: int = 10) -> "MRShareScheduler":
        """MRS2: first 6 jobs, then the rest (Section V.D)."""
        if num_jobs < 7:
            raise SchedulingError("MRS2 needs at least 7 jobs")
        return cls([list(range(6)), list(range(6, num_jobs))], label="MRS2")

    @classmethod
    def paper_three_batches(cls, num_jobs: int = 10) -> "MRShareScheduler":
        """MRS3: jobs 1-3, 4-6, 7-10 (Section V.D)."""
        if num_jobs < 7:
            raise SchedulingError("MRS3 needs at least 7 jobs")
        return cls([[0, 1, 2], [3, 4, 5], list(range(6, num_jobs))],
                   label="MRS3")

    # -------------------------------------------------------------- arrivals
    def on_job_submitted(self, job: JobSpec, now: float) -> None:
        index = self._arrival_counter
        self._arrival_counter += 1
        group = self._group_of.get(index)
        if group is None:
            raise SchedulingError(
                f"{self.name}: job arrival index {index} not covered by the "
                f"declared grouping ({len(self._group_of)} jobs expected)")
        batch = self._batches[group]
        batch.members.append(job)
        self.ctx.tracer.event("mrshare.collect", subject=job.job_id,
                              batch=group, have=len(batch.members),
                              need=batch.expected)
        if batch.complete and not batch.launched:
            batch.launched = True
            combined = make_batch(f"mrs:batch_{group}", batch.members)
            unit = ExecUnit(
                work_id=combined.batch_id,
                jobs=combined.jobs,
                profile=combined.profile,
                dfs_file=self.ctx.namenode.get_file(combined.file_name),
                ready_time=now + self.ctx.cost.job_submit_overhead_s,
            )
            self.enqueue_unit(unit, now)
