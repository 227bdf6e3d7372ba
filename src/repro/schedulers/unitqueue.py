"""A queue-of-execution-units engine shared by the FIFO and MRShare policies.

Both baselines reduce to the same runtime behaviour once their unit of
execution is fixed:

* FIFO — each *job* is a unit, ready as soon as it is submitted;
* MRShare — each *batch* is a unit, ready once **all** member jobs have
  arrived (the waiting that S3 is designed to remove).

Units execute in ready order under Hadoop FIFO semantics: a unit's map tasks
may only launch once every earlier unit has no unassigned map task left
(paper footnote 4: "the next job cannot start its map tasks until the
current job releases its map slots"), while reduce phases run on the
separate reduce-slot pool and may overlap the successor's maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.node import Node
from ..common import ids
from ..common.errors import SchedulingError
from ..dfs.block import DfsFile
from ..mapreduce.driver import Scheduler
from ..mapreduce.job import JobSpec
from ..mapreduce.profile import JobProfile
from ..mapreduce.task import TaskKind, TaskLaunch
from .assignment import BlockAssigner, pick_reduce_node


@dataclass
class ExecUnit:
    """One schedulable unit: a single job (FIFO) or a combined batch (MRShare)."""

    unit_id: str
    jobs: tuple[JobSpec, ...]
    profile: JobProfile
    dfs_file: DfsFile
    ready_time: float
    assigner: BlockAssigner = field(init=False)
    maps_outstanding: int = field(init=False)
    reduces_to_launch: int = field(init=False)
    reduces_outstanding: int = field(init=False)
    reduces_started: bool = False
    done: bool = False

    def __post_init__(self) -> None:
        self.assigner = BlockAssigner(self.dfs_file,
                                      range(self.dfs_file.num_blocks))
        self.maps_outstanding = self.dfs_file.num_blocks
        self.reduces_to_launch = max(j.num_reduce_tasks for j in self.jobs)
        self.reduces_outstanding = self.reduces_to_launch

    @property
    def batch_size(self) -> int:
        return len(self.jobs)

    @property
    def job_ids(self) -> tuple[str, ...]:
        return tuple(j.job_id for j in self.jobs)

    @property
    def maps_all_assigned(self) -> bool:
        return len(self.assigner) == 0

    @property
    def maps_all_complete(self) -> bool:
        return self.maps_outstanding == 0


class UnitQueueScheduler(Scheduler):
    """Executes :class:`ExecUnit` objects in ready order (see module docs).

    Subclasses convert job arrivals into units via :meth:`on_job_submitted`
    and call :meth:`enqueue_unit`.
    """

    name = "unit-queue"

    def __init__(self) -> None:
        super().__init__()
        self._units: list[ExecUnit] = []
        self._reduce_counter = 0
        self._attempt_counts: dict[str, int] = {}

    def _next_attempt_id(self, task_id: str) -> str:
        """Unique attempt id per task (retries and backups increment)."""
        count = self._attempt_counts.get(task_id, 0)
        self._attempt_counts[task_id] = count + 1
        return ids.attempt_id(task_id, count)

    # ----------------------------------------------------------- unit intake
    def enqueue_unit(self, unit: ExecUnit, now: float) -> None:
        """Append a unit; wakes the dispatch loop when it becomes ready."""
        self._units.append(unit)
        ctx = self.ctx
        ctx.tracer.event("unit.enqueue", subject=unit.unit_id,
                         jobs=len(unit.jobs), ready=round(unit.ready_time, 3))
        if unit.ready_time > now:
            ctx.sim.at(unit.ready_time,
                       lambda _t: ctx.request_dispatch(),
                       label=f"ready:{unit.unit_id}")

    # ------------------------------------------------------------- dispatch
    def next_launch(self, now: float) -> TaskLaunch | None:
        launch = self._next_reduce(now)
        if launch is not None:
            return launch
        return self._next_map(now)

    def _next_map(self, now: float) -> TaskLaunch | None:
        ctx = self.ctx
        for unit in self._units:
            if unit.done:
                continue
            if not unit.maps_all_assigned:
                if unit.ready_time > now:
                    # Strict FIFO: a not-yet-ready head blocks later units.
                    return None
                assignment = unit.assigner.next_assignment(ctx.cluster)
                if assignment is None:
                    return None  # no free map slots anywhere
                node, block_index, local = assignment
                block = unit.dfs_file.block(block_index)
                duration = ctx.cost.map_task_duration(
                    unit.profile, block.size_mb, unit.batch_size,
                    node_speed=node.speed, local=local)
                return TaskLaunch(
                    attempt_id=self._next_attempt_id(
                        ids.map_task_id(unit.unit_id, block_index)),
                    kind=TaskKind.MAP,
                    node_id=node.node_id,
                    duration=duration,
                    job_ids=unit.job_ids,
                    block_index=block_index,
                    local=local,
                    payload=unit,
                )
            # Unit has all maps assigned (maybe still running): FIFO lets the
            # next unit proceed only when this one's map slots are released,
            # which the running_maps>0 case naturally enforces via slot
            # occupancy — later units may grab whatever slots remain free.
        return None

    def _next_reduce(self, now: float) -> TaskLaunch | None:
        ctx = self.ctx
        for unit in self._units:
            if unit.done or not unit.maps_all_complete:
                continue
            if unit.reduces_to_launch <= 0:
                continue
            node = pick_reduce_node(ctx.cluster)
            if node is None:
                return None
            unit.reduces_to_launch -= 1
            unit.reduces_started = True
            self._reduce_counter += 1
            duration = ctx.cost.reduce_task_duration(
                unit.profile, unit.batch_size, node_speed=node.speed)
            return TaskLaunch(
                attempt_id=self._next_attempt_id(
                    ids.reduce_task_id(unit.unit_id, self._reduce_counter)),
                kind=TaskKind.REDUCE,
                node_id=node.node_id,
                duration=duration,
                job_ids=unit.job_ids,
                payload=unit,
            )
        return None

    # ------------------------------------------------------ faults/speculation
    def on_task_failed(self, launch: TaskLaunch, now: float) -> None:
        """Re-enqueue the failed work (Hadoop re-runs failed attempts)."""
        unit = launch.payload
        if not isinstance(unit, ExecUnit):
            raise SchedulingError(f"{self.name}: foreign task {launch.attempt_id}")
        if launch.kind is TaskKind.MAP:
            if launch.block_index is None:
                raise SchedulingError(f"{launch.attempt_id}: map without block")
            unit.assigner.add(launch.block_index)
        else:
            unit.reduces_to_launch += 1

    def backup_launch(self, launch: TaskLaunch, node: Node,
                      now: float) -> TaskLaunch | None:
        """Speculative copy of a running map task on another node."""
        unit = launch.payload
        if not isinstance(unit, ExecUnit) or unit.done:
            return None
        if launch.kind is not TaskKind.MAP or launch.block_index is None:
            return None
        block = unit.dfs_file.block(launch.block_index)
        local = node.node_id in block.locations
        duration = self.ctx.cost.map_task_duration(
            unit.profile, block.size_mb, unit.batch_size,
            node_speed=node.speed, local=local)
        return TaskLaunch(
            attempt_id=self._next_attempt_id(
                ids.map_task_id(unit.unit_id, launch.block_index)),
            kind=TaskKind.MAP,
            node_id=node.node_id,
            duration=duration,
            job_ids=unit.job_ids,
            block_index=launch.block_index,
            local=local,
            payload=unit,
        )

    # ----------------------------------------------------------- completions
    def on_task_complete(self, launch: TaskLaunch, now: float) -> None:
        unit = launch.payload
        if not isinstance(unit, ExecUnit):
            raise SchedulingError(f"{self.name}: foreign task {launch.attempt_id}")
        if launch.kind is TaskKind.MAP:
            unit.maps_outstanding -= 1
            if unit.maps_outstanding < 0:
                raise SchedulingError(f"{unit.unit_id}: map over-completion")
            if unit.maps_all_complete:
                self.ctx.tracer.event("unit.maps_done",
                                      subject=unit.unit_id)
        else:
            unit.reduces_outstanding -= 1
            if unit.reduces_outstanding < 0:
                raise SchedulingError(f"{unit.unit_id}: reduce over-completion")
            if unit.reduces_outstanding == 0:
                unit.done = True
                self.ctx.tracer.event("unit.complete",
                                      subject=unit.unit_id)
                for job_id in unit.job_ids:
                    self.ctx.job_completed(job_id)
