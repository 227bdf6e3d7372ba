"""The S3 shared scan scheduler (Section IV).

Control flow
------------
* A job arrival is routed to its file's scan loop by the Job Queue Manager
  and waits for the next iteration boundary (sub-job alignment).
* At most one *iteration* (merged sub-job) is in flight on the map slots at
  a time.  When the running iteration's map tasks complete, the next
  iteration is **armed**: after ``subjob_overhead_s`` (job-initialisation /
  communication latency — the cost that makes MRShare's single batch win
  under dense arrivals) the Partial Job Initialisation step materialises the
  merged sub-job from whatever jobs are queued *at that moment*, which is
  the paper's dynamic sub-job adjustment.
* Each iteration runs a merged reduce phase on the separate reduce-slot
  pool; it overlaps the next iteration's maps.  A job completes when the
  reduce of the iteration covering its final block finishes.
* Optional periodical slot checking excludes slow nodes from future
  assignments; with ``adaptive_segments`` the next iteration is sized to the
  slots actually available.
"""

from __future__ import annotations

from typing import Iterable

from ...common.errors import SchedulingError
from ...dfs.block import DfsFile
from ...mapreduce.job import JobSpec
from ...mapreduce.profile import JobProfile
from ...mapreduce.task import TaskKind, TaskLaunch
from ..dispatch import Work, WorkScheduler
from .config import S3Config
from .jobqueue import JobQueueManager
from .scanloop import Iteration
from .slotcheck import SlotChecker


class _SubJob(Work):
    """The dispatch state of one launched iteration (merged sub-job)."""

    def __init__(self, iteration: Iteration, dfs_file: DfsFile,
                 launched_at: float) -> None:
        super().__init__(iteration.iteration_id, dfs_file, iteration.chunk,
                         max(p.num_reduce_tasks
                             for p in iteration.profiles.values()))
        self.iteration = iteration
        #: Simulation time of the launch; anchors the map-wave and segment
        #: spans in the trace.
        self.launched_at = launched_at

    def map_inputs(self, block_index: int) -> tuple[tuple[str, ...], JobProfile]:
        return (self.iteration.block_jobs[block_index],
                self.iteration.profile_for(block_index))

    def reduce_inputs(self) -> tuple[tuple[str, ...], JobProfile, float]:
        iteration = self.iteration
        return (iteration.participants, iteration.profile,
                iteration.file_fraction)


class S3Scheduler(WorkScheduler[_SubJob]):
    """Shared Scan Scheduler: segments, sub-job alignment, partial init."""

    name = "S3"
    work_type = _SubJob

    def __init__(self, config: S3Config | None = None) -> None:
        super().__init__()
        self.config = config or S3Config()
        self.jqm: JobQueueManager | None = None
        self.slot_checker = SlotChecker(threshold=self.config.slowness_threshold)
        #: The one iteration whose maps are in flight.
        self._current: _SubJob | None = None
        self._armed = False
        #: Iterations whose merged reduce phase is launching / running.
        self._reducing: list[_SubJob] = []
        #: Whether the periodic slot-check timer is currently scheduled.
        self._ticker_running = False

    # ---------------------------------------------------------------- setup
    def on_bind(self) -> None:
        ctx = self.ctx
        blocks_per_segment = self.config.blocks_per_segment
        if blocks_per_segment is None:
            # The paper's ideal segment size: one block per concurrent map
            # slot, so a segment is exactly one cluster-wide map wave.
            blocks_per_segment = ctx.cluster.total_map_slots()
        self.jqm = JobQueueManager(ctx.namenode, blocks_per_segment)
        # The slot-check ticker starts lazily with the first job (see
        # _start_ticker): an unconditional periodic event would keep the
        # event queue non-empty forever and the simulation would never drain.

    @property
    def queue(self) -> JobQueueManager:
        if self.jqm is None:
            raise SchedulingError("S3 scheduler not bound")
        return self.jqm

    # -------------------------------------------------------------- arrivals
    def on_job_submitted(self, job: JobSpec, now: float) -> None:
        self.queue.admit(job, now)
        self.ctx.tracer.event("s3.queue", subject=job.job_id,
                              pending=self.queue.pending_jobs())
        self._start_ticker()
        if self._current is None and not self._armed:
            self._arm(now)

    # ------------------------------------------------------------ iterations
    def _arm(self, now: float) -> None:
        """Schedule the build of the next merged sub-job after the overhead.

        Jobs arriving inside the overhead window are still included — the
        iteration is materialised only when the timer fires.
        """
        if self._armed or self._current is not None:
            raise SchedulingError("S3: arming while an iteration is active")
        self._armed = True
        self.ctx.sim.after(self.ctx.cost.subjob_overhead_s,
                           self._launch_iteration, label="s3.arm")

    def _launch_iteration(self, now: float) -> None:
        self._armed = False
        if self._current is not None:
            raise SchedulingError("S3: iteration launch while one is running")
        loop = self.queue.next_loop_with_work()
        if loop is None:
            return  # all queues drained while armed; go idle
        static_size = self.queue.blocks_per_segment
        chunk_size = static_size
        if self.config.adaptive_segments:
            available = self.ctx.cluster.free_map_slots(include_excluded=False)
            if available > 0:
                chunk_size = min(chunk_size, available)
        pointer_before = loop.pointer
        iteration = loop.build_iteration(
            chunk_size, max_jobs=self.config.max_jobs_per_iteration)
        if iteration is None:
            # Only waiting jobs blocked by the admission cap: the reduce
            # branch of on_task_complete re-arms when a job completion
            # frees the cap (see the liveness note there).
            return
        self._current = _SubJob(iteration, loop.dfs_file, now)
        tracer = self.ctx.tracer
        tracer.event(
            "s3.subjob.launch", subject=iteration.iteration_id,
            blocks=len(iteration.chunk), jobs=iteration.batch_size,
            finishing=len(iteration.finishing_jobs))
        # Sub-job alignment (Section IV-B): jobs admitted by this build
        # start scanning at the segment boundary the pointer sat on.
        for job_id in loop.last_admitted:
            tracer.event("s3.align", subject=job_id,
                         start_block=pointer_before,
                         iteration=iteration.iteration_id)
        if chunk_size < static_size:
            # Dynamic segment resizing (Section IV-D.2): the merged
            # sub-job shrank to the map slots actually available.
            tracer.event("s3.segment.resize",
                         subject=iteration.iteration_id,
                         blocks=chunk_size, static=static_size)
        tracer.event("s3.pointer", subject=iteration.file_name,
                     pointer=loop.pointer, advanced=len(iteration.chunk),
                     wrapped=loop.pointer <= pointer_before)
        self.ctx.request_dispatch()

    # -------------------------------------------------------------- dispatch
    def _next_map(self, now: float) -> TaskLaunch | None:
        if self._current is None:
            return None
        return self._assign_map(
            self._current,
            include_excluded=not self.config.slot_check_enabled)

    def _reducible(self, now: float) -> Iterable[_SubJob]:
        return self._reducing

    def _speculatable(self, work: _SubJob) -> bool:
        return work is self._current

    def on_task_failed(self, launch: TaskLaunch, now: float) -> None:
        """Re-enqueue failed work within its merged sub-job.

        A failed map can only belong to the *current* iteration (maps run
        nowhere else), and a failed reduce to an iteration still in the
        reducing list, so re-adding to the same structures is always valid.
        """
        work = self._work_of(launch)
        if launch.kind is TaskKind.MAP and work is not self._current:
            raise SchedulingError(
                f"{launch.attempt_id}: map failure outside the current "
                "iteration")
        work.requeue(launch)

    # ------------------------------------------------------------ completion
    def on_task_complete(self, launch: TaskLaunch, now: float) -> None:
        work = self._work_of(launch)
        if launch.kind is TaskKind.MAP:
            self.slot_checker.observe(launch.node_id, launch.duration)
        if not work.complete(launch):
            return
        if launch.kind is TaskKind.MAP:
            self._finish_iteration_maps(work, now)
            return
        iteration = work.iteration
        self._reducing.remove(work)
        self.ctx.tracer.event("s3.subjob.complete",
                              subject=iteration.iteration_id)
        # Whole-segment span: launch through merged-reduce end.
        self.ctx.tracer.span_at(
            "s3.segment", work.launched_at, now,
            lane="s3", subject=iteration.iteration_id,
            blocks=len(iteration.chunk), jobs=iteration.batch_size,
            job_ids=list(iteration.participants))
        for job_id in iteration.finishing_jobs:
            self.ctx.job_completed(job_id)
        # Liveness: when the admission cap deferred every waiting job,
        # _launch_iteration returned with nothing armed; a job completion
        # is what frees the cap, so it must re-arm or the waiting jobs are
        # stranded forever (no map completion or arrival may ever come).
        if (self._current is None and not self._armed
                and self.queue.has_work()):
            self._arm(now)

    def _finish_iteration_maps(self, work: _SubJob, now: float) -> None:
        """Maps of the current iteration done: queue its merged reduce and
        arm the next iteration (reduces overlap the next maps)."""
        if work is not self._current:
            raise SchedulingError("S3: completed maps of a non-current iteration")
        self._current = None
        self._reducing.append(work)
        iteration = work.iteration
        self.ctx.tracer.event("s3.subjob.maps_done",
                              subject=iteration.iteration_id,
                              reduces=work.reduces_to_launch)
        # Map-wave span: iteration launch through its last map completion;
        # nested one level under the enclosing s3.segment span.
        self.ctx.tracer.span_at(
            "s3.map_wave", work.launched_at, now,
            lane="s3", subject=iteration.iteration_id, depth=1,
            blocks=len(iteration.chunk), jobs=iteration.batch_size,
            job_ids=list(iteration.participants))
        if self.queue.has_work():
            self._arm(now)

    # ------------------------------------------------------------ slot check
    def _start_ticker(self) -> None:
        """Start the periodic slot checker while there is work to watch."""
        if not self.config.slot_check_enabled or self._ticker_running:
            return
        self._ticker_running = True
        self.ctx.sim.every(self.config.slot_check_interval_s,
                           self._slot_check, label="s3.slotcheck")

    @property
    def _idle(self) -> bool:
        return (self._current is None and not self._armed
                and not self._reducing and not self.queue.has_work())

    def _slot_check(self, now: float) -> bool:
        """Periodic tick; returns True (stopping the timer) once idle."""
        if self._idle:
            self._ticker_running = False
            # Leave no node excluded while nothing runs.
            for node in self.ctx.cluster:
                node.excluded = False
            return True
        excluded = self.slot_checker.apply(self.ctx.cluster)
        self.ctx.tracer.event("s3.slotcheck", subject="cluster",
                              excluded=len(excluded),
                              nodes=sorted(excluded))
        return False
