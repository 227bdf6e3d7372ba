"""Job runners for the local runtime: no-sharing FIFO vs S3 shared scan.

Both runners execute *real* map/reduce functions over a
:class:`~repro.localrt.storage.BlockStore`.  The difference is purely how
many times the input bytes are read:

* :class:`FifoLocalRunner` — each job performs its own full scan
  (``n_jobs x file_bytes`` read), like Hadoop's FIFO queue.  It keeps
  its own loop on purpose: it is the oracle every shared-scan output is
  compared against, and a reference must not share the code it checks.
* :class:`SharedScanRunner` — the batch front-end of the one shared-scan
  core (:class:`~repro.localrt.live.SharedScanCore`): blocks are visited
  in circular segment order, each block is read **once per iteration**
  and its records feed every active job; jobs admitted later start
  mid-file and wrap around.  The scheduler service
  (:mod:`repro.service.core`) is the live front-end of the same core.

The runners report byte-level I/O so tests and examples can verify the
shared-scan saving directly.  Neither starts a thread: a block visit is
answered by the store handle's derived-view table or is one disk read,
in the calling thread.

Construction
------------
Every knob — segment size, tracing — lives on one
:class:`~repro.common.config.ExecutionConfig`::

    runner = SharedScanRunner(store, ExecutionConfig(
        blocks_per_segment=8,
        trace=TraceConfig(enabled=True, path="run.trace.json")))

``SharedScanRunner(store)`` uses the defaults; the record format of the
store's data is the ``reader=`` keyword.

Observability
-------------
With ``config.trace.enabled`` (or inside an active
:class:`~repro.obs.runtime.TraceSession`, or with an explicit
``tracer=``) the runners record wall-time spans — per-iteration
``s3.iteration`` / per-job ``fifo.job``, ``map.wave`` + per-block
``map.task``, ``shuffle.absorb``, ``reduce.job`` — plus per-wave
``io.wave`` events carrying the :class:`ReadStats` delta, and fold the
same deltas into a per-run :class:`~repro.obs.metrics.MetricsRegistry`
(``RunReport.metrics``).  Tracing never changes outputs or logical read
counters (property-tested), and the disabled path costs one attribute
check per instrumentation point.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..common.errors import ExecutionError
from ..obs.export import export_chrome
from ..obs.metrics import MetricsRegistry
from .api import JobResult, LocalJob
from .engine import JobRunState, count_pending_values, run_reduce
from .live import SharedScanCore, _LocalRunnerBase
from .parallel import MapTaskSpec, execute_map_wave
from .storage import ReadStats

#: Hook invoked after each shared-scan iteration's map phase:
#: ``hook(iteration_index, participating_run_states)``.
IterationHook = Callable[[int, list[JobRunState]], None]

@dataclass
class RunReport:
    """Results plus I/O accounting of one runner invocation.

    ``blocks_read``/``bytes_read`` are the *logical* counters (the
    scan-sharing measure).  ``io`` carries the full counter delta of the
    run, including the physical and the view-served reads.  When the run
    was traced, ``metrics`` holds the per-run registry and
    ``trace_path`` the export written per ``config.trace.path``
    (``None`` otherwise).
    """

    results: dict[str, JobResult]
    blocks_read: int
    bytes_read: int
    iterations: int = 0
    io: ReadStats = field(default_factory=ReadStats)
    trace_path: str | None = None
    metrics: MetricsRegistry | None = None

    def result(self, job_id: str) -> JobResult:
        try:
            return self.results[job_id]
        except KeyError:
            raise ExecutionError(f"no result for job {job_id!r}") from None

    @property
    def cache_hit_ratio(self) -> float:
        """The share of this run's block visits served from memory
        (:attr:`ReadStats.cache_hit_ratio`)."""
        return self.io.cache_hit_ratio


def _check_job_ids(jobs: Sequence[LocalJob]) -> list[str]:
    if not jobs:
        raise ExecutionError("no jobs to run")
    ids = [job.job_id for job in jobs]
    if len(set(ids)) != len(ids):
        raise ExecutionError(f"duplicate job ids: {ids}")
    return ids


def _finish_trace(runner: _LocalRunnerBase, report: RunReport) -> RunReport:
    """End-of-run bookkeeping: the derived-view event, metrics +
    export paths.
    ``runner`` is whoever ran the waves and so holds the run's registry
    (the FIFO runner itself; the shared-scan runner's per-run core)."""
    if not runner.tracer.enabled:
        return report
    runner.tracer.event("derived.stats", args=runner.store.derived.stats())
    report.metrics = runner.metrics
    trace = runner.config.trace
    if trace.path is not None:
        export_chrome(trace.path, [runner.tracer])
        report.trace_path = trace.path
    return report


class FifoLocalRunner(_LocalRunnerBase):
    """Runs each job independently, scanning the whole file per job.

    Built from an :class:`~repro.common.config.ExecutionConfig` (see the
    module docstring); the config's ``blocks_per_segment`` is ignored —
    FIFO always scans sequentially.
    """

    _tracer_name = "fifo"

    def run(self, jobs: Sequence[LocalJob]) -> RunReport:
        _check_job_ids(jobs)
        before = self.store.stats_snapshot()
        results: dict[str, JobResult] = {}
        with self.tracer.span("fifo.run", jobs=len(jobs)):
            self._run_jobs(jobs, results)
        io = self.store.stats_snapshot().delta(before)
        return _finish_trace(self, RunReport(
            results=results,
            blocks_read=io.blocks_read,
            bytes_read=io.bytes_read,
            io=io,
        ))

    def _run_jobs(self, jobs: Sequence[LocalJob],
                  results: dict[str, JobResult]) -> None:
        traced = self.tracer.enabled
        before_blocks = self.store.logical_blocks_read()
        for job in jobs:
            state = JobRunState(job)
            tasks = [MapTaskSpec(block_index=index, states=(state,))
                     for index in range(self.store.num_blocks)]
            job_before = self.store.stats_snapshot() if traced else None
            self._wave_placement(job.job_id,
                                 [task.block_index for task in tasks])
            with self.tracer.span("fifo.job", subject=job.job_id,
                                  blocks=len(tasks)):
                execute_map_wave(self.store, self.reader, tasks,
                                 tracer=self.tracer)
                reduce_input = count_pending_values(state)
                output = run_reduce(state, self.tracer)
            if job_before is not None:
                self._absorb_wave(job.job_id, job_before)
            results[job.job_id] = JobResult(
                job_id=job.job_id,
                output=output,
                map_input_records=state.map_input_records,
                map_output_records=state.map_output_records,
                reduce_output_records=len(output),
                reduce_input_values=reduce_input,
                completed_blocks_read=(self.store.logical_blocks_read()
                                       - before_blocks),
                counters=state.counters,
            )


class SharedScanRunner(_LocalRunnerBase):
    """The S3 execution loop over real data, for a fixed job list.

    Built from an :class:`~repro.common.config.ExecutionConfig` (see the
    module docstring).  ``config.blocks_per_segment`` is the iteration
    chunk size (the simulator's segment size; default 4 so small test
    fixtures exercise multiple iterations).
    """

    _tracer_name = "shared-scan"

    @property
    def blocks_per_segment(self) -> int:
        return self.config.blocks_per_segment

    def run(self, jobs: Sequence[LocalJob],
            arrival_iterations: Mapping[str, int] | None = None, *,
            on_iteration_end: "IterationHook | None" = None) -> RunReport:
        """Execute ``jobs``; job ``j`` is admitted at iteration
        ``arrival_iterations[j]`` (default: all at iteration 0).

        Admission at iteration ``i`` means the job's scan starts at the
        chunk processed in iteration ``i`` — the local analogue of sub-job
        alignment at segment boundaries.

        ``on_iteration_end(iteration, run_states)`` is invoked after each
        iteration's map phase with the participating jobs' run states; the
        Section V.G extension uses it to fold partial aggregates
        progressively.
        """
        ids = _check_job_ids(jobs)
        arrivals = dict(arrival_iterations or {})
        unknown = set(arrivals) - set(ids)
        if unknown:
            raise ExecutionError(f"arrival for unknown jobs: {sorted(unknown)}")
        if not all(isinstance(v, numbers.Integral) for v in arrivals.values()):
            raise ExecutionError("arrival iterations must be integers")
        if any(v < 0 for v in arrivals.values()):
            raise ExecutionError("arrival iterations must be non-negative")

        pending: dict[int, list[LocalJob]] = {}
        for job in jobs:
            pending.setdefault(arrivals.get(job.job_id, 0), []).append(job)
        before = self.store.stats_snapshot()
        results: dict[str, JobResult] = {}
        # A fresh core per run: the pointer starts at block 0.
        core = SharedScanCore(self.store, self.config, reader=self.reader,
                              tracer=self.tracer)
        iteration = 0
        with self.tracer.span("s3.run", jobs=len(jobs),
                              segment=self.blocks_per_segment):
            while pending or core.has_work():
                if not core.has_work() and iteration not in pending:
                    # Idle until the next arrival (skip empty iterations).
                    iteration = min(pending)
                for job in pending.pop(iteration, ()):
                    core.add_job(job, arrival=iteration)
                wave = core.plan(iteration)
                assert wave is not None  # a job was waiting or scanning
                core.run(wave)
                if on_iteration_end is not None:
                    on_iteration_end(iteration, list(wave.riders))
                for state in wave.finishing:
                    results[state.job.job_id] = core.finish(state, iteration)
                iteration += 1
        io = self.store.stats_snapshot().delta(before)
        return _finish_trace(core, RunReport(
            results=results,
            blocks_read=io.blocks_read,
            bytes_read=io.bytes_read,
            iterations=iteration,
            io=io,
        ))
