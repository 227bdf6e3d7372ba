"""The Job Queue Manager (Algorithm 1 of the paper).

Holds one :class:`~repro.schedulers.s3.scanloop.ScanLoop` per input file,
admits arriving jobs into the right loop, and picks which loop supplies the
next merged sub-job.  With a single shared file — the paper's setting — the
JQM degenerates to managing that one loop; multiple files are served
round-robin so no file starves.
"""

from __future__ import annotations

from typing import Protocol

from ...common.errors import SchedulingError
from ...dfs.block import DfsFile
from ...mapreduce.job import JobSpec
from .scanloop import ScanLoop
from .state import S3JobState


class FileResolver(Protocol):
    """Anything that can resolve a file name to its block chain.

    The simulator's :class:`~repro.dfs.namenode.NameNode` satisfies this
    structurally.
    """

    def get_file(self, name: str) -> DfsFile: ...


class JobQueueManager:
    """Per-file scan loops plus the round-robin loop selector.

    Simulator-only, hence single-threaded: the local runtime scans one
    store, so its :class:`~repro.localrt.live.SharedScanCore` holds the
    one :class:`~repro.schedulers.s3.scanloop.ScanLoop` directly.
    """

    def __init__(self, namenode: FileResolver, blocks_per_segment: int) -> None:
        if blocks_per_segment <= 0:
            raise SchedulingError("blocks_per_segment must be positive")
        self._namenode = namenode
        self._blocks_per_segment = blocks_per_segment
        self._loops: dict[str, ScanLoop] = {}
        self._rotation: list[str] = []
        self._next_loop_index = 0

    @property
    def blocks_per_segment(self) -> int:
        return self._blocks_per_segment

    def loop_for(self, file_name: str) -> ScanLoop:
        """The loop scanning ``file_name`` (created on first use)."""
        loop = self._loops.get(file_name)
        if loop is None:
            dfs_file = self._namenode.get_file(file_name)
            loop = ScanLoop(dfs_file)
            self._loops[file_name] = loop
            self._rotation.append(file_name)
        return loop

    def admit(self, job: JobSpec, now: float) -> S3JobState:
        """Route an arriving job to its file's scan loop."""
        return self.loop_for(job.file_name).add_job(job, now)

    def has_work(self) -> bool:
        return any(loop.has_work() for loop in self._loops.values())

    def next_loop_with_work(self) -> ScanLoop | None:
        """Round-robin over files: the next loop that has jobs to serve."""
        if not self._rotation:
            return None
        count = len(self._rotation)
        for step in range(count):
            name = self._rotation[(self._next_loop_index + step) % count]
            loop = self._loops[name]
            if loop.has_work():
                self._next_loop_index = (self._next_loop_index + step + 1) % count
                return loop
        return None

    def find(self, job_id: str) -> S3JobState | None:
        """Locate a live (scanning or waiting) job across all loops."""
        for loop in self._loops.values():
            state = loop.find(job_id)
            if state is not None:
                return state
        return None

    def cancel(self, job_id: str) -> S3JobState | None:
        """Detach a live job from whichever loop holds it.

        Returns the cancelled state, or ``None`` when no loop holds the
        job (unknown id, or its scan already completed).
        """
        for loop in self._loops.values():
            state = loop.cancel(job_id)
            if state is not None:
                return state
        return None

    def pending_jobs(self) -> int:
        """Total jobs currently scanning or waiting (for tests/monitoring)."""
        return sum(len(loop.active) + len(loop.waiting)
                   for loop in self._loops.values())
