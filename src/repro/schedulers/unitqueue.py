"""A queue-of-execution-units engine shared by the FIFO, MRShare, Capacity
and Fair policies.

The baselines reduce to the same runtime behaviour once their unit of
execution is fixed:

* FIFO — each *job* is a unit, ready as soon as it is submitted;
* MRShare — each *batch* is a unit, ready once **all** member jobs have
  arrived (the waiting that S3 is designed to remove);
* Capacity and Fair — each job is a unit, queued FIFO within its pool
  (see :mod:`repro.schedulers.pooled`).

Units execute in ready order under Hadoop FIFO semantics: a unit's map tasks
may only launch once every earlier unit has no unassigned map task left
(paper footnote 4: "the next job cannot start its map tasks until the
current job releases its map slots"), while reduce phases run on the
separate reduce-slot pool and may overlap the successor's maps.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..dfs.block import DfsFile
from ..mapreduce.job import JobSpec
from ..mapreduce.profile import JobProfile
from ..mapreduce.task import TaskKind, TaskLaunch
from .dispatch import Work, WorkScheduler


class ExecUnit(Work):
    """One schedulable unit: a single job (FIFO) or a combined batch (MRShare)."""

    def __init__(self, work_id: str, jobs: tuple[JobSpec, ...],
                 profile: JobProfile, dfs_file: DfsFile,
                 ready_time: float) -> None:
        super().__init__(work_id, dfs_file, range(dfs_file.num_blocks),
                         max(j.num_reduce_tasks for j in jobs))
        self.jobs = jobs
        self.job_ids = tuple(j.job_id for j in jobs)
        self.profile = profile
        self.ready_time = ready_time
        self.done = False

    def map_inputs(self, block_index: int) -> tuple[tuple[str, ...], JobProfile]:
        return self.job_ids, self.profile

    def reduce_inputs(self) -> tuple[tuple[str, ...], JobProfile, float]:
        return self.job_ids, self.profile, 1.0


def map_head(units: Iterable[ExecUnit], now: float) -> ExecUnit | None:
    """The unit whose maps launch next: the first with an unassigned map,
    unless it is not ready yet — then it blocks every later unit."""
    for unit in units:
        if not unit.done and not unit.maps_all_assigned:
            return unit if unit.ready_time <= now else None
    return None


def reducible(units: Iterable[ExecUnit]) -> Iterator[ExecUnit]:
    """Units whose maps have all finished and whose reduces have not."""
    return (unit for unit in units
            if not unit.done and unit.maps_all_complete)


class UnitQueueScheduler(WorkScheduler[ExecUnit]):
    """Executes :class:`ExecUnit` objects in ready order (see module docs).

    Subclasses convert job arrivals into units via :meth:`on_job_submitted`
    and call :meth:`enqueue_unit`.
    """

    name = "unit-queue"
    work_type = ExecUnit

    def __init__(self) -> None:
        super().__init__()
        self._units: list[ExecUnit] = []

    # ----------------------------------------------------------- unit intake
    def enqueue_unit(self, unit: ExecUnit, now: float,
                     index: int | None = None) -> None:
        """Queue a unit (at ``index``, by default last); wakes the dispatch
        loop when it becomes ready."""
        self._units.insert(len(self._units) if index is None else index, unit)
        ctx = self.ctx
        ctx.tracer.event("unit.enqueue", subject=unit.work_id,
                         jobs=len(unit.jobs), ready=round(unit.ready_time, 3))
        if unit.ready_time > now:
            ctx.sim.at(unit.ready_time,
                       lambda _t: ctx.request_dispatch(),
                       label=f"ready:{unit.work_id}")

    # ------------------------------------------------------------- dispatch
    def _next_map(self, now: float) -> TaskLaunch | None:
        unit = map_head(self._units, now)
        return None if unit is None else self._assign_map(unit)

    def _reducible(self, now: float) -> Iterable[ExecUnit]:
        return reducible(self._units)

    def _speculatable(self, work: ExecUnit) -> bool:
        return not work.done

    # ----------------------------------------------------------- completions
    def on_task_complete(self, launch: TaskLaunch, now: float) -> None:
        unit = self._work_of(launch)
        if not unit.complete(launch):
            return
        ctx = self.ctx
        if launch.kind is TaskKind.MAP:
            ctx.tracer.event("unit.maps_done", subject=unit.work_id)
            return
        unit.done = True
        ctx.tracer.event("unit.complete", subject=unit.work_id)
        for job_id in unit.job_ids:
            ctx.job_completed(job_id)
