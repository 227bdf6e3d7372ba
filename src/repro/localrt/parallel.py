"""The map wave of the local runtime: collect every block, then absorb.

Map tasks over distinct blocks are independent.  :func:`execute_map_wave`
collects them one by one in the calling thread — each block visit a
lazy :class:`~repro.localrt.api.BlockData` bound to the store handle's
derived-view table and mapped by every rider at once
(:func:`repro.localrt.engine.collect_map_outputs`), which reads the
block through the store handle only on a view miss, whatever the
riders — and then folds the results into each job's shuffle state **in
task order**.  This is the
only map path: every ``ExecutionConfig.map_backend`` name runs it, so a
rider's output never leaves the process that absorbs it.

A summing wordcount rider
(:meth:`~repro.localrt.jobs.PatternWordCountBlock.rides_wave`) is not
mapped block by block.  The collect phase keeps each block's encoded
view for it, and the absorb phase hands the wave's blocks, grouped by
the task rider lists that named them (a task list may give riders of
one wave different blocks, such as a prefix of the chunk for a
finishing rider), to
:meth:`~repro.localrt.jobs.PatternWordCountBlock.absorb_wave`, which
sums them once and adds the sums to the scan's running sums once: its
pattern is applied once, at reduce, not per (block, rider).

How a wave treats each job — its batch kernel, or per-record, or summed
— depends on the job and the reader alone, so it is resolved at the
job's first wave and kept on its run state (``JobRunState.route``); a
scan core splits a rider set once (:func:`split_riders`,
:func:`run_map_wave`).

:func:`make_backend` keeps the wave's collect phase reachable as an
object (``run_wave`` + ``close``) for callers that time it on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, cast

from ..common.config import MAP_BACKENDS
from ..common.errors import ExecutionError
from ..obs.tracer import Tracer
from . import tokens
from .api import BlockData, BlockMapper, BlockStoreProtocol
from .counters import Counters
from .engine import (
    JobRunState,
    MapOutput,
    absorb_map_result,
    batch_mapper_for,
    collect_map_outputs,
)
from .jobs import PatternWordCountBlock, ScanSums
from .records import RecordReader

#: One map task's collected result: ``(record_count, outputs_per_job,
#: counters_per_job)`` — the return shape of ``collect_map_outputs`` —
#: for the riders mapped block by block (a wave-summed one has none).
TaskResult = tuple[int, "Sequence[MapOutput]", "Sequence[Counters]"]
Split = tuple[list[JobRunState], list[JobRunState]]  #: mapped, summed riders
Route = tuple[RecordReader, "BlockMapper | None", bool]  #: JobRunState.route


@dataclass(slots=True)
class MapTaskSpec:
    """One block-level map task: which block, which participating jobs
    (never changed; not frozen, whose constructor costs twice as much)."""

    block_index: int
    states: tuple[JobRunState, ...]

    def __post_init__(self) -> None:
        if not self.states:
            raise ExecutionError(
                f"map task for block {self.block_index} has no jobs")


class SerialMapBackend:
    """The collect phase of a wave as an object: what :func:`make_backend`
    returns for every name.  Holds nothing, so :meth:`close` has nothing
    to release."""

    def run_wave(self, store: BlockStoreProtocol, reader: RecordReader,
                 tasks: Sequence[MapTaskSpec], *,
                 tracer: Tracer | None = None) -> list[TaskResult]:
        """Collect every task's map output, in task order, without
        touching any job's shuffle state."""
        return [_collect_in_parent(store, reader, task, split, tracer)[0]
                for task, split in zip(tasks, _split_tasks(tasks, reader))]

    def close(self) -> None:
        """Nothing to release."""


def make_backend(name: str, *, workers: int | None = None,
                 ) -> SerialMapBackend:
    """The in-process collect phase, for any name ``ExecutionConfig``
    accepts (``workers`` is ignored, as ``map_workers`` is)."""
    if name not in MAP_BACKENDS:
        raise ExecutionError(
            f"unknown map backend {name!r}; expected one of {MAP_BACKENDS}")
    return SerialMapBackend()


def _route(state: JobRunState, reader: RecordReader) -> Route:
    """``state.route`` for ``reader``, resolved on first use: a batch
    kernel that declines the reader raises here, at the job's first
    wave (:func:`~repro.localrt.engine.batch_mapper_for`)."""
    route = state.route
    if route is None or route[0] is not reader:
        route = state.route = (
            reader, batch_mapper_for(state.job, reader),
            PatternWordCountBlock.rides_wave(state.job, reader))
    return route


def split_riders(states: Sequence[JobRunState],
                 reader: RecordReader) -> Split:
    """``states`` split into the riders a wave maps block by block and
    the ones it sums (resolving each one's route)."""
    mapped: list[JobRunState] = []
    summed: list[JobRunState] = []
    for state in states:
        (summed if _route(state, reader)[2] else mapped).append(state)
    return mapped, summed


def _split_tasks(tasks: Sequence[MapTaskSpec],
                 reader: RecordReader) -> list[Split]:
    """Each task's :data:`Split`, decided once per rider-set tuple."""
    splits: dict[int, Split] = {}
    for task in tasks:
        if id(task.states) not in splits:
            splits[id(task.states)] = split_riders(task.states, reader)
    return [splits[id(task.states)] for task in tasks]


def _collect_in_parent(store: BlockStoreProtocol, reader: RecordReader,
                       task: MapTaskSpec, split: Split,
                       tracer: Tracer | None = None,
                       ) -> tuple[TaskResult, "tokens.EncodedBlock | None"]:
    """Map + combine one block for its mapped riders (``split``), and
    return its encoded view beside the result for its wave-summed ones;
    a block with no mapped rider collects that view alone.

    Every rider mix takes this one path: a lazy :class:`BlockData`
    bound to the store handle's derived-view table reads the block only
    when a view some rider uses is not kept, or a per-record mapper
    rides; a visit that read nothing is booked as view-served
    (``visit_block``).  Every decode happens below this call, so a block
    that is not UTF-8 surfaces here: one :class:`ExecutionError` naming
    the block, for every mapper kind — on every visit, since a derive
    that raises publishes nothing.
    """
    if tracer is not None and tracer.enabled:
        with tracer.span("map.task", subject=f"block_{task.block_index}",
                         jobs=len(task.states),
                         job_ids=[s.job.job_id for s in task.states]):
            return _collect_in_parent(store, reader, task, split)
    index = task.block_index
    mapped, summed = split
    data = BlockData.from_store(store, index)
    try:
        encoded = data.encoded() if summed else None
        if mapped:
            count, outputs, counters = collect_map_outputs(
                [state.job for state in mapped], reader, data,
                store.block_offset(index),
                kernels=[cast(Route, state.route)[1] for state in mapped])
        else:
            count, outputs, counters = data.line_count(), [], []
    except UnicodeDecodeError as exc:
        raise ExecutionError(
            f"block {index} is not valid UTF-8 ({exc})") from exc
    if not data.fetched:
        store.visit_block(index)
    return (count, outputs, counters), encoded


def execute_map_wave(store: BlockStoreProtocol, reader: RecordReader,
                     tasks: Sequence[MapTaskSpec], *,
                     tracer: Tracer | None = None,
                     sums: ScanSums | None = None) -> None:
    """Run a wave of block-level map tasks.

    Collect (read + map + combine) runs task by task, then shuffle
    absorption folds the results in ``tasks`` order, so a block that
    fails leaves every job's shuffle state as it was.  The wave-summed
    riders are folded last, into ``sums`` — the running sums of the
    scan the wave belongs to, which every one of their riders rides
    whole until it settles; by default, a scan of this wave alone (see
    the module docstring).

    An enabled ``tracer`` records a ``map.wave`` span around the collect
    phase (with one ``map.task`` child per block) and a
    ``shuffle.absorb`` span around the fold into job shuffle state;
    without one, no span is opened at all.
    """
    if not tasks:
        return
    seen_blocks = [t.block_index for t in tasks]
    if len(set(seen_blocks)) != len(seen_blocks):
        raise ExecutionError(f"duplicate blocks in wave: {seen_blocks}")
    run_map_wave(store, reader, tasks, _split_tasks(tasks, reader),
                 tracer=tracer, sums=sums)


def run_map_wave(store: BlockStoreProtocol, reader: RecordReader,
                 tasks: Sequence[MapTaskSpec], splits: Sequence[Split], *,
                 tracer: Tracer | None = None,
                 sums: ScanSums | None = None) -> None:
    """:func:`execute_map_wave` for distinct blocks whose ``splits[i]``
    is ``split_riders(tasks[i].states, reader)``."""
    if tracer is None or not tracer.enabled:
        _absorb_wave(splits, [_collect_in_parent(store, reader, task, split)
                              for task, split in zip(tasks, splits)], sums)
        return
    with tracer.span("map.wave", blocks=len(tasks)):
        results = [_collect_in_parent(store, reader, task, split, tracer)
                   for task, split in zip(tasks, splits)]
    with tracer.span("shuffle.absorb", blocks=len(tasks)):
        _absorb_wave(splits, results, sums)


def _absorb_wave(splits: Sequence[Split], results: Sequence[
        tuple[TaskResult, "tokens.EncodedBlock | None"]],
                 sums: ScanSums | None) -> None:
    """Fold a wave's collected results into its riders, in task order."""
    # id(summed riders list) -> (the blocks it named, the list)
    groups: dict[int, tuple[list[tokens.EncodedBlock],
                            list[JobRunState]]] = {}
    for (mapped, summed), ((record_count, outputs, task_counters),
                           encoded) in zip(splits, results, strict=True):
        for state, buffer, counters in zip(mapped, outputs,
                                           task_counters, strict=True):
            absorb_map_result(state, record_count, buffer, counters)
        if encoded is not None:
            groups.setdefault(id(summed), ([], summed))[0].append(encoded)
    if groups:
        PatternWordCountBlock.absorb_wave(list(groups.values()), sums)
