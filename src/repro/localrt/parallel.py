"""Pluggable map-wave execution backends for the local runtime.

Map tasks over distinct blocks are independent, so the collect phase
(:func:`repro.localrt.engine.collect_map_outputs`) can run under any
execution strategy; the absorb phase then folds results into each job's
shuffle state serially **in block order**, so every backend is bit-identical
to the serial one (the equivalence is property-tested).  Every backend
reads a block's *bytes* and runs the one task body, :func:`_collect_block`
(per-record mappers get their single decode in ``collect_map_outputs``).

Three backends implement the :class:`MapBackend` strategy:

* :class:`SerialMapBackend` — in-process loop, no pool (the reference
  implementation all others must match byte-for-byte);
* :class:`ThreadMapBackend` — a thread pool.  CPython's GIL limits the
  speedup for pure-Python mappers, but I/O-heavy readers do overlap;
* :class:`ProcessMapBackend` — a process pool that actually bypasses the
  GIL.  The parent's store routes and counts every read
  (``delegate_read``) and hands the worker the block *file*; the worker
  opens it — no store, no counters, and the parent never ships block
  bytes across the pipe.  Jobs, readers and result buffers therefore
  must be picklable, which :func:`ProcessMapBackend.run_wave` validates
  with a by-name error before submitting work.  A parent-attached
  :class:`~repro.localrt.cache.BlockCache` is **not** shared across the
  process boundary, so worker reads always hit disk and are charged to
  the logical *and* physical counters.  Nor is the parent's table of
  derived views (``store.derived``): each worker keeps one of its own
  (:data:`_WORKER_VIEWS`), so a block is tokenised — and a delimited
  block's qualifying rows parsed — once per worker that meets it, not
  once per lap.

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
from .api import BlockData, BlockStoreProtocol, LocalJob, Record
from .counters import Counters
from .engine import JobRunState, absorb_map_result, collect_map_outputs
from .records import RecordReader
from .storage import read_block_file
from .tokens import DerivedViews

if TYPE_CHECKING:  # pragma: no cover
    import pathlib
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

    Each worker opens the block file the parent's store routed it to, so
    only a path and the (small) job/reader definitions travel to the
    worker and only per-job output buffers travel back.  The store counts
    the read where it routes it — in the parent, at submit — so I/O
    accounting is identical to the in-process backends.
    """

    name = "processes"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = _resolve_workers(workers)
        self._pool: "Executor | None" = None
        #: Ids of the last wave's riders, proven picklable.  Riders span
        #: consecutive waves, so a job is still validated once, and the
        #: memo does not outlive the jobs (a service runs for ever).
        self._validated: frozenset[str] = frozenset()

    def run_wave(self, store: BlockStoreProtocol, reader: RecordReader,
                 tasks: Sequence[MapTaskSpec], *,
                 tracer: Tracer | None = None) -> list[TaskResult]:
        self._validate_picklable(tasks, reader)
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        # Route and count the whole wave before submitting any of it: a
        # block with no live replica fails here, in the parent.
        paths = [store.delegate_read(task.block_index) for task in tasks]
        futures = [
            self._pool.submit(_collect_in_worker, path, task.block_index,
                              store.block_offset(task.block_index),
                              [s.job for s in task.states], reader)
            for task, path in zip(tasks, paths, strict=True)]
        results: list[TaskResult] = []
        for task, future in zip(tasks, futures, strict=True):
            results.append(future.result())
            if tracer is not None and tracer.enabled:
                tracer.event("map.task.remote",
                             subject=f"block_{task.block_index}",
                             bytes=store.block_size_bytes(task.block_index),
                             jobs=len(task.states),
                             job_ids=[s.job.job_id for s in task.states])
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _validate_picklable(self, tasks: Sequence[MapTaskSpec],
                            reader: RecordReader) -> None:
        """Fail with a by-name error before work reaches the pool."""
        riders = {state.job.job_id: state.job
                  for task in tasks for state in task.states}
        for job_id, job in riders.items():
            if job_id in self._validated:
                continue
            try:
                pickle.dumps((job, reader))
            except Exception as exc:
                raise ExecutionError(
                    f"job {job_id!r} cannot run on the 'processes' "
                    f"backend: its mapper/combiner/reducer or the record "
                    f"reader is not picklable ({exc})") from exc
        self._validated = frozenset(riders)


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ExecutionError(f"workers must be >= 1, got {workers}")
    return workers


def _collect_block(block_index: int, data: BlockData, offset: int,
                   jobs: list[LocalJob], reader: RecordReader) -> TaskResult:
    """Map + combine one block's bytes: the task body of every backend.

    ``data`` arrives bound to the derived-view table of whoever read it
    (the store handle in the parent, :data:`_WORKER_VIEWS` in a pool
    worker), so a block's compact views are derived once per table, not
    once per lap of the scan.  Every decode happens below this call
    (``collect_map_outputs`` for per-record mappers, ``BlockData`` for
    kernels), so a block that is not UTF-8 surfaces here: one
    :class:`ExecutionError` naming the block, for every mapper kind,
    picklable back from a worker — on every visit, since a derive that
    raises publishes nothing.
    """
    try:
        return collect_map_outputs(jobs, reader, data, offset)
    except UnicodeDecodeError as exc:
        raise ExecutionError(
            f"block {block_index} is not valid UTF-8 ({exc})") from exc


def _collect_in_parent(store: BlockStoreProtocol, reader: RecordReader,
                       task: MapTaskSpec,
                       tracer: Tracer | None = None) -> TaskResult:
    """Read + map + combine one block inside the parent process."""
    if tracer is not None and tracer.enabled:
        with tracer.span("map.task", subject=f"block_{task.block_index}",
                         jobs=len(task.states),
                         job_ids=[s.job.job_id for s in task.states]):
            return _collect_in_parent(store, reader, task)
    index = task.block_index
    data = BlockData(store.read_block_bytes(index)).bind(store.derived, index)
    return _collect_block(index, data, store.block_offset(index),
                          [s.job for s in task.states], reader)


#: A pool worker's derived views, keyed by block file: the parent's
#: table cannot cross the pipe, so each worker keeps what it derived —
#: encoded blocks, structural passes, row tables (whose records travel
#: back pickled, as copies) — for as long as it lives, which is as long
#: as its pool does.  Empty in every other process.
_WORKER_VIEWS = DerivedViews()


def _collect_in_worker(path: "pathlib.Path", block_index: int, offset: int,
                       jobs: list[LocalJob],
                       reader: RecordReader) -> TaskResult:
    """Module-level worker entry point (must be importable for pickling).
    ``path`` is the block file the parent's store routed and already
    counted; the worker holds no store of its own."""
    raw, _mapped = read_block_file(path)
    return _collect_block(block_index,
                          BlockData(raw).bind(_WORKER_VIEWS, path),
                          offset, jobs, reader)


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
        results = backend.run_wave(store, reader, tasks, tracer=tracer)
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
