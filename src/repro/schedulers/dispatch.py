"""The dispatch path every simulator policy shares.

A unit of work is a set of map tasks over file blocks, then a reduce
phase.  :class:`Work` records one unit's dispatch state and says what its
tasks serve and cost; :class:`WorkScheduler` prices, numbers, retries and
backs up every task the same way, so a policy only chooses *which* work
goes next, and measured differences come from that choice alone.
"""

from __future__ import annotations

import abc
from typing import Generic, Iterable, TypeVar

from ..cluster.node import Node
from ..common import ids
from ..common.errors import SchedulingError
from ..dfs.block import DfsFile
from ..mapreduce.driver import Scheduler
from ..mapreduce.profile import JobProfile
from ..mapreduce.task import TaskKind, TaskLaunch
from .assignment import BlockAssigner, pick_reduce_node


class Work(abc.ABC):
    """Dispatch state of one unit of work: its maps, then its reduces.

    ``assigner`` holds the blocks no map has been assigned yet; the three
    counters say how many maps still have to finish and how many reduces
    still have to launch and finish.
    """

    def __init__(self, work_id: str, dfs_file: DfsFile, blocks: Iterable[int],
                 num_reduces: int) -> None:
        self.work_id = work_id
        self.dfs_file = dfs_file
        self.assigner = BlockAssigner(dfs_file, blocks)
        self.maps_outstanding = len(self.assigner)
        self.reduces_to_launch = num_reduces
        self.reduces_outstanding = num_reduces

    @property
    def maps_all_assigned(self) -> bool:
        return len(self.assigner) == 0

    @property
    def maps_all_complete(self) -> bool:
        return self.maps_outstanding == 0

    @abc.abstractmethod
    def map_inputs(self, block_index: int) -> tuple[tuple[str, ...], JobProfile]:
        """The jobs a map of ``block_index`` serves, and the profile that
        prices it."""

    @abc.abstractmethod
    def reduce_inputs(self) -> tuple[tuple[str, ...], JobProfile, float]:
        """The jobs a reduce serves, its profile and the file fraction its
        input covers."""

    def requeue(self, launch: TaskLaunch) -> None:
        """Make a failed attempt's task launchable again."""
        if launch.kind is TaskKind.MAP:
            if launch.block_index is None:
                raise SchedulingError(f"{launch.attempt_id}: map without block")
            self.assigner.add(launch.block_index)
        else:
            self.reduces_to_launch += 1

    def complete(self, launch: TaskLaunch) -> bool:
        """Count a finished task; true when it ends its phase."""
        if launch.kind is TaskKind.MAP:
            self.maps_outstanding -= 1
            left = self.maps_outstanding
        else:
            self.reduces_outstanding -= 1
            left = self.reduces_outstanding
        if left < 0:
            raise SchedulingError(
                f"{self.work_id}: {launch.kind.value} over-completion")
        return left == 0


W = TypeVar("W", bound=Work)


class WorkScheduler(Scheduler, Generic[W]):
    """A policy over :class:`Work`: reduces first, then maps.

    Subclasses supply :meth:`_next_map`, :meth:`_reducible` and
    :meth:`_speculatable`; this class builds, numbers, retries and backs up
    every task.  A launch's payload is its work.
    """

    #: The work this policy dispatches; any other payload is foreign.
    work_type: type[W]

    def __init__(self) -> None:
        super().__init__()
        self._reduce_counter = 0
        self._attempt_counts: dict[str, int] = {}

    def _next_attempt_id(self, task_id: str) -> str:
        """Unique attempt id per task (retries and backups increment)."""
        count = self._attempt_counts.get(task_id, 0)
        self._attempt_counts[task_id] = count + 1
        return ids.attempt_id(task_id, count)

    def _work_of(self, launch: TaskLaunch) -> W:
        work = launch.payload
        if not isinstance(work, self.work_type):
            raise SchedulingError(f"{self.name}: foreign task {launch.attempt_id}")
        return work

    # -------------------------------------------------------------- policy
    @abc.abstractmethod
    def _next_map(self, now: float) -> TaskLaunch | None:
        """The next map to launch (see :meth:`_assign_map`), or None."""

    @abc.abstractmethod
    def _reducible(self, now: float) -> Iterable[W]:
        """Work whose reduces may launch, in launch order."""

    @abc.abstractmethod
    def _speculatable(self, work: W) -> bool:
        """Whether a running map of ``work`` may get a backup."""

    # ------------------------------------------------------------ dispatch
    def next_launch(self, now: float) -> TaskLaunch | None:
        for work in self._reducible(now):
            if work.reduces_to_launch > 0:
                node = pick_reduce_node(self.ctx.cluster)
                if node is None:
                    break
                return self._reduce_launch(work, node)
        return self._next_map(now)

    def _assign_map(self, work: W, *,
                    include_excluded: bool = True) -> TaskLaunch | None:
        """Launch one of ``work``'s pending maps on the best free slot."""
        assignment = work.assigner.next_assignment(
            self.ctx.cluster, include_excluded=include_excluded)
        if assignment is None:
            return None
        node, block_index, local = assignment
        return self._map_launch(work, node, block_index, local)

    def _map_launch(self, work: W, node: Node, block_index: int,
                    local: bool) -> TaskLaunch:
        jobs, profile = work.map_inputs(block_index)
        duration = self.ctx.cost.map_task_duration(
            profile, work.dfs_file.block(block_index).size_mb, len(jobs),
            node_speed=node.speed, local=local)
        return TaskLaunch(
            attempt_id=self._next_attempt_id(
                ids.map_task_id(work.work_id, block_index)),
            kind=TaskKind.MAP,
            node_id=node.node_id,
            duration=duration,
            job_ids=jobs,
            block_index=block_index,
            local=local,
            payload=work,
        )

    def _reduce_launch(self, work: W, node: Node) -> TaskLaunch:
        work.reduces_to_launch -= 1
        self._reduce_counter += 1
        jobs, profile, file_fraction = work.reduce_inputs()
        duration = self.ctx.cost.reduce_task_duration(
            profile, len(jobs), file_fraction=file_fraction,
            node_speed=node.speed)
        return TaskLaunch(
            attempt_id=self._next_attempt_id(
                ids.reduce_task_id(work.work_id, self._reduce_counter)),
            kind=TaskKind.REDUCE,
            node_id=node.node_id,
            duration=duration,
            job_ids=jobs,
            payload=work,
        )

    # -------------------------------------------------- faults/speculation
    def on_task_failed(self, launch: TaskLaunch, now: float) -> None:
        """Re-enqueue the failed work (Hadoop re-runs failed attempts)."""
        self._work_of(launch).requeue(launch)

    def backup_launch(self, launch: TaskLaunch, node: Node,
                      now: float) -> TaskLaunch | None:
        """Speculative copy of a running map task on ``node``."""
        work = launch.payload
        if (not isinstance(work, self.work_type)
                or launch.kind is not TaskKind.MAP
                or launch.block_index is None
                or not self._speculatable(work)):
            return None
        local = node.node_id in work.dfs_file.block(launch.block_index).locations
        return self._map_launch(work, node, launch.block_index, local)
