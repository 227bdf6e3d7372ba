"""The shared-scan core: one circular scan loop behind two front-ends.

The paper has one Job Queue Manager — one circular pointer, one merged
sub-job per iteration (Algorithm 1) — and so does the local runtime:
:class:`SharedScanCore` owns the one
:class:`~repro.schedulers.s3.scanloop.ScanLoop` over a store's blocks
(the scheduler the simulator validates) and the riders' run states.  As
in the paper, nothing reads ahead: a wave reads exactly the blocks of
the current merged sub-job.  Two front-ends drive it:

* :class:`~repro.localrt.runners.SharedScanRunner` — a fixed job list
  with arrival iterations, a fresh core per ``run()``, no lock;
* :class:`~repro.service.core.SchedulerService` — a live queue, one
  core for the service's lifetime, scheduling calls under its ``_cond``.

The core's surface is split by what each call touches:

* :meth:`~SharedScanCore.add_job`, :meth:`~SharedScanCore.cancel`,
  :meth:`~SharedScanCore.has_work` and :meth:`~SharedScanCore.plan`
  read and write **scheduling state only** (the loop, the rider table).
  The caller serialises them — the service under its condition
  variable, the batch runner by being single-threaded.
* :meth:`~SharedScanCore.run` and :meth:`~SharedScanCore.finish` touch
  **no scheduling state**: everything they need travels in the
  :class:`Wave` that ``plan`` returned, so the service runs them outside
  its lock while submissions and cancellations keep arriving.

This module also holds the construction and trace plumbing that every
local front-end shares (:class:`_LocalRunnerBase`); the FIFO oracle in
:mod:`repro.localrt.runners` uses that and nothing else from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..common import ids
from ..common.config import ExecutionConfig
from ..common.errors import ExecutionError
from ..dfs.block import Block, DfsFile
from ..mapreduce.job import JobSpec
from ..mapreduce.profile import normal_wordcount
from ..obs.metrics import MetricsRegistry
from ..obs.runtime import resolve_tracer
from ..obs.tracer import Tracer
from ..schedulers.assignment import group_blocks_by_location
from ..schedulers.s3.scanloop import ScanLoop
from ..schedulers.s3.state import S3JobState
from .api import BlockStoreProtocol, JobResult, LocalJob
from .engine import JobRunState, count_pending_values, run_reduce
from .parallel import MapTaskSpec, execute_map_wave
from .records import RecordReader, TextLineReader
from .storage import ReadStats

#: Name under which a local block store appears in scan-loop state.
STORE_FILE_NAME = "service.store"

#: Wave-size histogram buckets (blocks per wave).
_WAVE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class _LocalRunnerBase:
    """Construction and trace plumbing shared by every local front-end:
    one :class:`~repro.common.config.ExecutionConfig` carries every knob."""

    #: Tracer name for this runner kind (exporters show it as the track).
    _tracer_name = "localrt"

    def __init__(self, store: BlockStoreProtocol,
                 config: ExecutionConfig | None = None, *,
                 reader: RecordReader | None = None,
                 tracer: Tracer | None = None) -> None:
        if config is None:
            config = ExecutionConfig()
        elif not isinstance(config, ExecutionConfig):
            raise ExecutionError(
                f"config must be an ExecutionConfig, got {type(config).__name__}")
        self.store = store
        self.config = config
        self.reader = reader or TextLineReader()
        self.tracer = resolve_tracer(tracer, config.trace.enabled,
                                     self._tracer_name)
        # Placement-aware stores emit shard.read/shard.failover through
        # the runner's tracer; a single store's attach is a no-op.
        store.attach_tracer(self.tracer)
        #: Per-run metric instruments (populated only while tracing).
        self.metrics = MetricsRegistry()

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release owned resources: a local front-end owns none, so this
        does nothing (kept with the context-manager protocol, which
        callers use)."""

    def __enter__(self) -> "_LocalRunnerBase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ---------------------------------------------------------- observability
    def _wave_placement(self, label: str, blocks: Sequence[int]) -> None:
        """Annotate a wave with where its blocks will be served from.

        Groups the wave's blocks by preferred (first-listed) replica
        holder — for a sharded store that is the primary shard, or the
        first live replica once a shard is down.  Purely observational:
        task order (and therefore absorb order and job outputs) never
        changes.  Single stores report only the synthetic ``"local"``
        node, so the event is skipped for them.
        """
        if not self.tracer.enabled or not blocks:
            return
        plan = group_blocks_by_location(self.store.block_locations, blocks)
        if set(plan) == {"local"}:
            return
        self.tracer.event(
            "wave.placement", subject=label,
            args={location: len(held)
                  for location, held in sorted(plan.items())})

    def _absorb_wave(self, label: str, before: ReadStats) -> None:
        """Record one wave's I/O delta as an ``io.wave`` event + metrics."""
        delta = self.store.stats_snapshot().delta(before)
        self.metrics.absorb_read_stats(delta)
        self.metrics.histogram("wave.blocks",
                               buckets=_WAVE_BUCKETS).observe(delta.blocks_read)
        self.tracer.event("io.wave", subject=label,
                          blocks=delta.blocks_read, bytes=delta.bytes_read,
                          physical_blocks=delta.physical_blocks_read,
                          view_blocks=delta.view_blocks_read)


def _scan_file(store: BlockStoreProtocol) -> DfsFile:
    """The store as the block chain a :class:`ScanLoop` plans over: sizes
    and replica locations taken from the real store, so scan-loop state
    sees the same placement the reads will route by (a single store
    reports one synthetic ``"local"`` node; a sharded store reports its
    shard names, primary first)."""
    return DfsFile(name=STORE_FILE_NAME, blocks=tuple(
        Block(block_id=ids.block_id(STORE_FILE_NAME, index),
              file_name=STORE_FILE_NAME, index=index,
              size_mb=max(store.block_size_bytes(index), 1) / 2 ** 20,
              locations=store.block_locations(index))
        for index in range(store.num_blocks)))


@dataclass(frozen=True)
class Wave:
    """One planned iteration — Algorithm 1's merged sub-job — carrying
    everything :meth:`SharedScanCore.run` and
    :meth:`SharedScanCore.finish` need, so neither reads scheduling
    state."""

    index: int
    #: Where the scan pointer sat when the wave was planned: the start
    #: block of every job in ``admitted`` (sub-job alignment).
    pointer: int
    tasks: tuple[MapTaskSpec, ...]
    #: Every job riding this wave, in admit order.
    riders: tuple[JobRunState, ...]
    #: Ids of the jobs this plan admitted at ``pointer``.
    admitted: tuple[str, ...]
    #: The riders whose scan completes with this wave (reduce next).
    finishing: tuple[JobRunState, ...]


class SharedScanCore(_LocalRunnerBase):
    """The S3 shared-scan loop over real data, one iteration at a time.

    Owns no lock and no thread (see the module docstring for which half
    of the surface the caller must serialise).
    """

    _tracer_name = "shared-scan"

    #: The scan loop's per-job cost profile is simulator input; the
    #: local runtime measures real work and never reads it.
    _PROFILE = normal_wordcount()

    def __init__(self, store: BlockStoreProtocol,
                 config: ExecutionConfig | None = None, *,
                 reader: RecordReader | None = None,
                 tracer: Tracer | None = None) -> None:
        super().__init__(store, config, reader=reader, tracer=tracer)
        self._loop = ScanLoop(_scan_file(store))
        #: Run state of every job waiting for or riding the scan.
        self._run_states: dict[str, JobRunState] = {}
        #: Logical blocks read when this core started (baseline for
        #: per-job virtual completion times).
        self._blocks_baseline = store.logical_blocks_read()

    @property
    def blocks_read(self) -> int:
        """Logical blocks read through this core so far."""
        return self.store.logical_blocks_read() - self._blocks_baseline

    # ------------------------------------------------------- scheduling state
    def add_job(self, job: LocalJob, *, priority: int = 0,
                arrival: float = 0.0) -> S3JobState:
        """Queue ``job`` for admission at the next :meth:`plan`.

        Among jobs admitted together, higher ``priority`` rides first,
        then lower ``arrival`` stamp, then call order.  Returns the
        job's live scan state (start block, coverage).
        """
        spec = JobSpec(job_id=job.job_id, file_name=STORE_FILE_NAME,
                       profile=self._PROFILE, priority=priority)
        state = self._loop.add_job(spec, arrival)
        self._run_states[job.job_id] = JobRunState(job)
        return state

    def cancel(self, job_id: str) -> bool:
        """Detach a waiting or scanning job; False when the core no
        longer holds it (unknown id, or its scan already completed)."""
        if self._loop.cancel(job_id) is None:
            return False
        del self._run_states[job_id]
        return True

    def has_work(self) -> bool:
        return self._loop.has_work()

    def plan(self, index: int, *,
             max_jobs: int | None = None) -> Wave | None:
        """Plan iteration ``index``: admit waiting jobs at the pointer
        (at most ``max_jobs`` riders in all) and cut the next chunk.

        Commits the plan — the pointer and every rider's coverage
        advance now.  ``None`` when no job needs scanning.
        """
        loop = self._loop
        pointer = loop.pointer
        iteration = loop.build_iteration(self.config.blocks_per_segment,
                                         max_jobs=max_jobs)
        if iteration is None:
            return None
        states, block_jobs = self._run_states, iteration.block_jobs
        # One run-state tuple per distinct rider set, shared by its blocks.
        rider_sets = {job_ids: tuple(map(states.__getitem__, job_ids))
                      for job_ids in set(block_jobs.values())}
        tasks = tuple(MapTaskSpec(block, rider_sets[block_jobs[block]])
                      for block in iteration.chunk)
        riders = rider_sets[iteration.participants]
        return Wave(
            index=index, pointer=pointer, tasks=tasks, riders=riders,
            admitted=loop.last_admitted,
            finishing=tuple(states.pop(job_id)
                            for job_id in iteration.finishing_jobs))

    # ------------------------------------------------------------- execution
    def run(self, wave: Wave) -> None:
        """Run one planned wave's map phase (blocks read exactly once)."""
        label = f"iter_{wave.index}"
        wave_before = (self.store.stats_snapshot()
                       if self.tracer.enabled else None)
        self._wave_placement(label, [task.block_index for task in wave.tasks])
        with self.tracer.span("s3.iteration", subject=label,
                              pointer=wave.pointer, blocks=len(wave.tasks),
                              jobs=len(wave.riders),
                              job_ids=[s.job.job_id for s in wave.riders]):
            execute_map_wave(self.store, self.reader, wave.tasks,
                             tracer=self.tracer)
        if wave_before is not None:
            self._absorb_wave(label, wave_before)

    def finish(self, run_state: JobRunState,
               completed_iteration: int) -> JobResult:
        """Reduce a scan-complete job into its final :class:`JobResult`."""
        reduce_input = count_pending_values(run_state)
        output = run_reduce(run_state, self.tracer)
        return JobResult(
            job_id=run_state.job.job_id,
            output=output,
            map_input_records=run_state.map_input_records,
            map_output_records=run_state.map_output_records,
            reduce_output_records=len(output),
            reduce_input_values=reduce_input,
            completed_iteration=completed_iteration,
            completed_blocks_read=self.blocks_read,
            counters=run_state.counters,
        )
