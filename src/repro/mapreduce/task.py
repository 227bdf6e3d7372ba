"""Task launch descriptors exchanged between schedulers and the driver.

A scheduler answers ``next_launch()`` with a :class:`TaskLaunch`; the driver
occupies the slot, simulates the duration, then hands the same object back
via ``on_task_complete``.  The ``payload`` field carries scheduler-private
state (the scheduler's record of the work the task belongs to) without
the driver having to know about it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any


class TaskKind(enum.Enum):
    """The two slot classes of the MapReduce engine."""

    MAP = "map"
    REDUCE = "reduce"


@dataclass
class TaskLaunch:
    """One task attempt ready to run on a specific node.

    Attributes
    ----------
    attempt_id:
        Unique attempt identifier (also the slot-occupancy key).
    kind:
        Map or reduce.
    node_id:
        The node whose slot the task occupies.
    duration:
        Simulated execution time in seconds (already node-speed adjusted).
    job_ids:
        Jobs served by this task — more than one for shared-scan map tasks
        and combined reduces.
    block_index:
        Input block for map tasks; ``None`` for reduces.
    local:
        Whether the map input was node-local (tracing / locality stats).
    payload:
        Scheduler-private context, returned untouched on completion.
    """

    attempt_id: str
    kind: TaskKind
    node_id: str
    duration: float
    job_ids: tuple[str, ...]
    block_index: int | None = None
    local: bool = True
    payload: Any = None
    #: Filled by the driver.
    started_at: float | None = None
    finished_at: float | None = None

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"{self.attempt_id}: negative duration")
        if not self.job_ids:
            raise ValueError(f"{self.attempt_id}: task serves no job")

    @property
    def batch_size(self) -> int:
        """Number of jobs sharing this task."""
        return len(self.job_ids)


@dataclass
class LocalityStats:
    """Counts of node-local vs remote map launches (driver-maintained)."""

    local: int = 0
    remote: int = 0

    def observe(self, launch: TaskLaunch) -> None:
        if launch.kind is TaskKind.MAP:
            if launch.local:
                self.local += 1
            else:
                self.remote += 1

    @property
    def total(self) -> int:
        return self.local + self.remote
