"""Per-job scan state tracked by the S3 Job Queue Manager.

A job covers its file's blocks **contiguously in circular order** starting
from the block at which it was admitted (Section IV-B's round-robin data
scan).  That contiguity gives the key invariant the scheduler relies on:

    every active job's next needed block equals the global scan pointer
    whenever an iteration is built,

because jobs are only admitted at iteration boundaries (i.e. exactly at the
pointer) and every iteration advances all active jobs together.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...common.errors import SchedulingError
from ...mapreduce.job import JobSpec


@dataclass
class S3JobState:
    """Scan progress of one job inside a :class:`ScanLoop`."""

    spec: JobSpec
    total_blocks: int
    arrival_time: float
    #: Block index at which the job's scan started; ``None`` until the job
    #: is first included in an iteration (alignment happens at build time).
    start_block: int | None = None
    #: Number of blocks covered so far (contiguous from ``start_block``).
    covered: int = 0
    #: Set once the job is detached from its loop (terminal: a cancelled
    #: state can never be admitted or advanced again).
    cancelled: bool = False

    def __post_init__(self) -> None:
        if self.total_blocks <= 0:
            raise SchedulingError(f"{self.job_id}: file has no blocks")

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def admitted(self) -> bool:
        return self.start_block is not None

    @property
    def remaining(self) -> int:
        """Blocks still to scan."""
        return self.total_blocks - self.covered

    def admit(self, pointer: int) -> None:
        """Align the job's scan to start at the current pointer."""
        if self.cancelled:
            raise SchedulingError(f"{self.job_id}: admitting a cancelled job")
        if self.admitted:
            raise SchedulingError(f"{self.job_id}: admitted twice")
        if not 0 <= pointer < self.total_blocks:
            raise SchedulingError(
                f"{self.job_id}: pointer {pointer} out of range")
        self.start_block = pointer

    def cancel(self) -> None:
        """Mark the state terminal (callers detach it from the loop)."""
        self.cancelled = True

    def advance(self, blocks: int) -> None:
        """Record ``blocks`` more covered blocks."""
        if self.cancelled:
            raise SchedulingError(f"{self.job_id}: advancing a cancelled job")
        if not self.admitted:
            raise SchedulingError(f"{self.job_id}: advancing before admission")
        if blocks < 0 or self.covered + blocks > self.total_blocks:
            raise SchedulingError(
                f"{self.job_id}: advance({blocks}) with covered={self.covered}"
                f"/{self.total_blocks}")
        self.covered += blocks

    def covered_blocks(self) -> set[int]:
        """The concrete set of covered block indices (test/debug helper)."""
        if not self.admitted:
            return set()
        assert self.start_block is not None
        return {(self.start_block + offset) % self.total_blocks
                for offset in range(self.covered)}
