"""Hadoop's default FIFO scheduler (the paper's naive no-sharing baseline).

Jobs are queued by (priority, submission time); each job scans the whole
file on its own.  A later job's map tasks cannot start until every earlier
job's map tasks have all been assigned — which under the paper's
configuration (one map slot per node, jobs larger than the cluster) degrades
to strictly sequential job execution.
"""

from __future__ import annotations

from ..common.errors import SchedulingError
from ..mapreduce.job import JobSpec
from .unitqueue import ExecUnit, UnitQueueScheduler


class FifoScheduler(UnitQueueScheduler):
    """One execution unit per job, ready ``job_submit_overhead_s`` after
    submission (job initialisation latency)."""

    name = "FIFO"

    def on_job_submitted(self, job: JobSpec, now: float) -> None:
        ctx = self.ctx
        dfs_file = ctx.namenode.get_file(job.file_name)
        unit = ExecUnit(
            work_id=f"fifo:{job.job_id}",
            jobs=(job,),
            profile=job.profile,
            dfs_file=dfs_file,
            ready_time=now + ctx.cost.job_submit_overhead_s,
        )
        self._insert_by_priority(unit, job.priority, now)

    def _insert_by_priority(self, unit: ExecUnit, priority: int,
                            now: float) -> None:
        """Hadoop FIFO sorts pending jobs by priority, then submit time.

        Jobs that already launched tasks are never pre-empted, so the unit is
        inserted after every unit that has started or outranks it.
        """
        insert_at = len(self._units)
        for index in range(len(self._units) - 1, -1, -1):
            existing = self._units[index]
            existing_priority = existing.jobs[0].priority
            # "Started" = at least one map task assigned already.
            started = len(existing.assigner) < existing.dfs_file.num_blocks
            if started or existing_priority >= priority:
                break
            insert_at = index
        # Default path (equal priorities) appends, preserving FIFO order.
        if insert_at < 0 or insert_at > len(self._units):
            raise SchedulingError("FIFO queue corrupted")
        self.enqueue_unit(unit, now, insert_at)
