"""Pluggable map-wave execution backends for the local runtime.

Map tasks over distinct blocks are independent, so the collect phase
(:func:`repro.localrt.engine.collect_map_outputs`) can run under any
execution strategy; the absorb phase then folds results into each job's
shuffle state serially **in block order**, so every backend is bit-identical
to the serial one (the equivalence is property-tested).

Three backends implement the :class:`MapBackend` strategy:

* :class:`SerialMapBackend` — in-process loop, no pool (the reference
  implementation all others must match byte-for-byte);
* :class:`ThreadMapBackend` — a thread pool.  CPython's GIL limits the
  speedup for pure-Python mappers, but I/O-heavy readers do overlap;
* :class:`ProcessMapBackend` — a process pool that actually bypasses the
  GIL.  Workers open the :class:`~repro.localrt.storage.BlockStore` path
  themselves and read their block in-process (the parent never ships block
  text across the pipe); jobs, readers and result buffers therefore must be
  picklable, which :func:`ProcessMapBackend.run_wave` validates with a
  by-name error before submitting work.  Worker stores are plain
  (cache-less) instances: a parent-attached
  :class:`~repro.localrt.cache.BlockCache` is **not** shared across the
  process boundary, so worker reads always hit disk and are mirrored into
  the parent's logical *and* physical counters via
  :meth:`~repro.localrt.storage.BlockStore.note_external_read`.

Backends are context managers; ``close()`` releases any pool.  Pools are
created lazily on first use, so a closed backend can be reused.
"""

from __future__ import annotations

import abc
import os
import pickle
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..common.config import ExecutionConfig
from ..common.errors import ExecutionError
from ..obs.tracer import NULL_TRACER, Tracer
from .api import BlockMapper, BlockStoreProtocol, LocalJob, Record
from .counters import Counters
from .engine import JobRunState, absorb_map_result, collect_map_outputs
from .records import RecordReader

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import Executor

#: One map task's collected result: ``(record_count, outputs_per_job,
#: counters_per_job)`` — the return shape of ``collect_map_outputs``.
TaskResult = tuple[int, "list[list[Record]]", "list[Counters | None]"]


@dataclass(frozen=True)
class MapTaskSpec:
    """One block-level map task: which block, which participating jobs."""

    block_index: int
    states: tuple[JobRunState, ...]

    def __post_init__(self) -> None:
        if not self.states:
            raise ExecutionError(
                f"map task for block {self.block_index} has no jobs")


class MapBackend(abc.ABC):
    """Strategy for running the pure collect phase of a map wave.

    ``run_wave`` must return exactly one :data:`TaskResult` per task, in
    task order; the caller absorbs them serially so scheduling decisions
    inside a backend can never change job outputs.
    """

    #: Registry name ("serial", "threads", "processes").
    name: str = "backend"

    @abc.abstractmethod
    def run_wave(self, store: BlockStoreProtocol, reader: RecordReader,
                 tasks: Sequence[MapTaskSpec], *,
                 tracer: Tracer | None = None) -> list[TaskResult]:
        """Collect every task's map output (no shared-state mutation).

        ``tracer`` (when enabled) receives one ``map.task`` span per
        block from the in-process backends; the process backend records
        ``map.task.remote`` instants instead (worker-side timing does
        not cross the pipe).
        """

    def close(self) -> None:
        """Release pooled resources (pools are re-created lazily on reuse)."""

    def __enter__(self) -> "MapBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialMapBackend(MapBackend):
    """Reference backend: collect tasks one by one in the calling thread."""

    name = "serial"

    def run_wave(self, store: BlockStoreProtocol, reader: RecordReader,
                 tasks: Sequence[MapTaskSpec], *,
                 tracer: Tracer | None = None) -> list[TaskResult]:
        return [_collect_in_parent(store, reader, task, tracer)
                for task in tasks]


class ThreadMapBackend(MapBackend):
    """Thread-pool backend: overlapping I/O, GIL-bound mapper CPU."""

    name = "threads"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = _resolve_workers(workers)
        self._pool: "Executor | None" = None

    def run_wave(self, store: BlockStoreProtocol, reader: RecordReader,
                 tasks: Sequence[MapTaskSpec], *,
                 tracer: Tracer | None = None) -> list[TaskResult]:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return list(self._pool.map(
            lambda task: _collect_in_parent(store, reader, task, tracer),
            tasks))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ProcessMapBackend(MapBackend):
    """Process-pool backend: true parallelism for pure-Python mappers.

    Each worker opens the block store from its on-disk path and reads its
    own block, so only the (small) job/reader definitions travel to the
    worker and only per-job output buffers travel back.  The parent folds
    the bytes each worker read into the store's I/O counters, keeping the
    scan-sharing accounting identical to the in-process backends.
    """

    name = "processes"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = _resolve_workers(workers)
        self._pool: "Executor | None" = None
        #: Job ids already proven picklable (validated once per job).
        self._validated: set[str] = set()

    def run_wave(self, store: BlockStoreProtocol, reader: RecordReader,
                 tasks: Sequence[MapTaskSpec], *,
                 tracer: Tracer | None = None) -> list[TaskResult]:
        self._validate_picklable(tasks, reader)
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        directory = str(store.directory)
        futures = [
            self._pool.submit(_collect_in_worker, directory, task.block_index,
                              tuple(s.job for s in task.states), reader)
            for task in tasks]
        results: list[TaskResult] = []
        for task, future in zip(tasks, futures, strict=True):
            record_count, outputs, task_counters, block_bytes = future.result()
            # The read happened in the worker's store instance; mirror it
            # into the parent's counters so I/O accounting stays exact.
            # Whether the worker took the bytes path is a pure function
            # of (jobs, reader), so the parent mirrors that too.
            bytes_blocks = 1 if _task_wants_bytes(task, reader) else 0
            # Naming the block lets a sharded store attribute the read to
            # the shard that actually served it in the worker (replica
            # routing is deterministic and shared via on-disk markers).
            store.note_external_read(blocks=1, nbytes=block_bytes,
                                     bytes_blocks=bytes_blocks,
                                     block_indices=(task.block_index,))
            if tracer is not None and tracer.enabled:
                tracer.event("map.task.remote",
                             subject=f"block_{task.block_index}",
                             bytes=block_bytes, jobs=len(task.states),
                             job_ids=[s.job.job_id for s in task.states])
            results.append((record_count, outputs, task_counters))
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _validate_picklable(self, tasks: Sequence[MapTaskSpec],
                            reader: RecordReader) -> None:
        """Fail with a by-name error before work reaches the pool."""
        for task in tasks:
            for state in task.states:
                job = state.job
                if job.job_id in self._validated:
                    continue
                try:
                    pickle.dumps((job, reader))
                except Exception as exc:
                    raise ExecutionError(
                        f"job {job.job_id!r} cannot run on the 'processes' "
                        f"backend: its mapper/combiner/reducer or the record "
                        f"reader is not picklable ({exc})") from exc
                self._validated.add(job.job_id)


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ExecutionError(f"workers must be >= 1, got {workers}")
    return workers


def _job_wants_bytes(job: LocalJob, reader: RecordReader) -> bool:
    """True when the job's mapper will take the batched bytes path."""
    mapper = job.mapper
    return isinstance(mapper, BlockMapper) and mapper.supports_reader(reader)


def _task_wants_bytes(task: MapTaskSpec, reader: RecordReader) -> bool:
    """True when any job in the task batches — the block is then read
    through ``read_block_bytes`` and decoded at most once in-engine."""
    return any(_job_wants_bytes(state.job, reader) for state in task.states)


def _read_for_task(store: BlockStoreProtocol, reader: RecordReader,
                   task: MapTaskSpec) -> "tuple[str | bytes, int]":
    """Read the task's block via the path its jobs will consume.

    Bytes for waves with at least one batch kernel (zero decode when
    every job batches), text for purely per-record waves — keeping the
    legacy path's counters and decode-error behaviour untouched.
    """
    if _task_wants_bytes(task, reader):
        data: "str | bytes" = store.read_block_bytes(task.block_index)
    else:
        data = store.read_block(task.block_index)
    return data, store.block_offset(task.block_index)


def _collect_in_parent(store: BlockStoreProtocol, reader: RecordReader,
                       task: MapTaskSpec,
                       tracer: Tracer | None = None) -> TaskResult:
    """Read + map + combine one block inside the parent process."""
    if tracer is None or not tracer.enabled:
        data, offset = _read_for_task(store, reader, task)
        return collect_map_outputs([s.job for s in task.states], reader,
                                   data, offset)
    with tracer.span("map.task", subject=f"block_{task.block_index}",
                     jobs=len(task.states),
                     job_ids=[s.job.job_id for s in task.states]):
        data, offset = _read_for_task(store, reader, task)
        return collect_map_outputs([s.job for s in task.states], reader,
                                   data, offset)


#: Per-worker-process cache of opened stores (keyed by directory), so a
#: long wave does not re-glob the block directory for every task.
_WORKER_STORES: dict[str, BlockStoreProtocol] = {}


def _collect_in_worker(directory: str, block_index: int,
                       jobs: tuple[LocalJob, ...], reader: RecordReader,
                       ) -> tuple[int, "list[list[Record]]",
                                  "list[Counters | None]", int]:
    """Module-level worker entry point (must be importable for pickling)."""
    store = _WORKER_STORES.get(directory)
    if store is None:
        # Dispatch on the on-disk layout: sharded stores reopen as
        # sharded (with replica routing + .down markers honoured),
        # plain directories as single stores.
        from .sharded import open_store
        store = open_store(directory)
        _WORKER_STORES[directory] = store
    if any(_job_wants_bytes(job, reader) for job in jobs):
        data: "str | bytes" = store.read_block_bytes(block_index)
    else:
        data = store.read_block(block_index)
    offset = store.block_offset(block_index)
    record_count, outputs, task_counters = collect_map_outputs(
        list(jobs), reader, data, offset)
    # Report the on-disk byte size, not the decoded length: they differ
    # for non-ASCII corpora, and the parent mirrors *bytes* read.
    return record_count, outputs, task_counters, \
        store.block_size_bytes(block_index)


#: Names accepted by :func:`make_backend` (mirrors ExecutionConfig).
BACKEND_NAMES = ("serial", "threads", "processes")


def make_backend(name: str, *, workers: int | None = None) -> MapBackend:
    """Build a backend from its registry name.

    ``workers`` defaults to ``os.cpu_count()`` for the pooled backends and
    is ignored by ``serial``.
    """
    if name == "serial":
        return SerialMapBackend()
    if name == "threads":
        return ThreadMapBackend(workers)
    if name == "processes":
        return ProcessMapBackend(workers)
    raise ExecutionError(
        f"unknown map backend {name!r}; expected one of {BACKEND_NAMES}")


def backend_from_config(config: ExecutionConfig) -> MapBackend:
    """Build the backend an :class:`~repro.common.config.ExecutionConfig`
    describes."""
    return make_backend(config.map_backend, workers=config.map_workers)


def execute_map_wave(store: BlockStoreProtocol, reader: RecordReader,
                     tasks: Sequence[MapTaskSpec], *, backend: MapBackend,
                     tracer: Tracer | None = None) -> None:
    """Run a wave of block-level map tasks under a map backend.

    Collect (read + map + combine) runs under ``backend`` (the caller
    owns and closes it) and shuffle absorption is serial in ``tasks``
    order for determinism.  A backend returning the wrong number or
    shape of results fails loudly rather than silently truncating the
    wave.

    An enabled ``tracer`` records a ``map.wave`` span around the collect
    phase (with per-block ``map.task`` children from the backend) and a
    ``shuffle.absorb`` span around the fold into job shuffle state.
    """
    if not tasks:
        return
    seen_blocks = [t.block_index for t in tasks]
    if len(set(seen_blocks)) != len(seen_blocks):
        raise ExecutionError(f"duplicate blocks in wave: {seen_blocks}")
    trace = tracer if tracer is not None else NULL_TRACER
    with trace.span("map.wave", blocks=len(tasks), backend=backend.name):
        # Pass the tracer only when recording: backends subclassed
        # before the tracer existed keep their 3-argument run_wave.
        if tracer is not None and tracer.enabled:
            results = backend.run_wave(store, reader, tasks, tracer=tracer)
        else:
            results = backend.run_wave(store, reader, tasks)
    if len(results) != len(tasks):
        raise ExecutionError(
            f"map backend {backend.name!r} returned {len(results)} results "
            f"for {len(tasks)} tasks")
    with trace.span("shuffle.absorb", blocks=len(tasks)):
        for task, (record_count, outputs, task_counters) in zip(tasks, results,
                                                                strict=True):
            try:
                per_job = zip(task.states, outputs, task_counters, strict=True)
                for state, buffer, counters in per_job:
                    absorb_map_result(state, record_count, buffer, counters)
            except ValueError as exc:
                raise ExecutionError(
                    f"map backend {backend.name!r} returned a malformed "
                    f"result for block {task.block_index}: {exc}") from exc
