"""Execution engine of the local runtime: map, combine, shuffle, sort, reduce.

The one map path is :func:`repro.localrt.parallel.execute_map_wave`: it
reads each block **once** and hands it to :func:`collect_map_outputs`,
which maps it for every job of the batch — the real, byte-level
realisation of the merged sub-jobs that the simulator models in time —
and :func:`absorb_map_result` folds each job's share into its run state.
A summing wordcount job skips both: the wave sums its blocks' counts
once and adds them to its scan's running sums once, for all such
riders; a rider's :class:`WaveShuffle` is the part of those sums it
rode, and applies the job's pattern when the shuffle is next read
(:meth:`JobRunState.settle`).

Two execution paths share :func:`collect_map_outputs`.  The *batched*
path hands the whole block (as a :class:`~repro.localrt.api.BlockData`)
to any mapper implementing :class:`~repro.localrt.api.BlockMapper` whose
``supports_reader`` accepts the wave's reader — CPU cost then scales
with bytes scanned, not records × jobs; a kernel that declines the
reader is an :class:`~repro.common.errors.ExecutionError`.  A plain
:class:`~repro.localrt.api.Mapper` takes the original *per-record*
path: parse the block once with the
:class:`~repro.localrt.records.RecordReader` and dispatch each record to
each remaining mapper.  The two paths are observably identical —
same record counts, post-combiner outputs, counters — which the
property suite pins.
"""

from __future__ import annotations

import copy
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterator, Mapping, Protocol, Sequence

import numpy as np

from ..common.errors import ExecutionError
from ..obs.tracer import Tracer
from . import tokens
from .api import (
    BlockData,
    BlockMapper,
    IdentityReducer,
    LocalJob,
    Record,
    default_partitioner,
)
from .counters import FRAMEWORK_GROUP, Counters, CounterUser
from .records import RecordReader

#: One rider's map output for one block, as the shuffle receives it: a
#: record list, or a selection kernel's partial still in row space (it
#: reads as its record list).
MapOutput = list[Record] | tokens.RowPartial


class WaveShuffle(Protocol):
    """What map waves added to a job's shuffle in bulk, before the job's
    map filter applied (:class:`~repro.localrt.jobs.SumsInterval`)."""

    def settle(self, state: "JobRunState") -> None:
        """Filter what was added and fold it into ``state``'s ``sums``,
        record counts and counters."""


@dataclass
class JobRunState:
    """Mutable per-job accumulation across map tasks.

    The shuffle has three homes.  Records land in ``groups``, one table
    per job (key -> values in arrival order).  A summing wordcount
    rider's counts stay in token-dictionary id space instead: its map
    waves add their blocks' unfiltered per-word sums to the scan's
    running sums once per wave, for every rider at once, and the rider's
    ``pending`` shuffle is the part of them it rode — the running sums
    now less where they stood when it joined.  :meth:`settle` — run by
    every reader of the shuffle, and by the reduce — takes that
    difference and applies the job's pattern in one pass, in the order
    the job's reduce emits its words: the ids of the dictionary's reduce
    order for the job's partition count that the pattern matches
    (:meth:`~repro.localrt.tokens.TokenDictionary.matching_order`),
    masked by the nonzero totals.  ``sums`` holds, per
    dictionary generation the job has met (more than one only across a
    roll-over or an over-wide block), the matching ids in that order
    and their totals; ``summed_records`` counts the combined records
    those totals stand for, so record counts read exactly as if every
    one had been appended to ``groups``.  A reduce whose whole shuffle
    is one such pair decodes the words it emits, in the order it holds
    them.  The map task and record counts, and the ``wordcount``
    counters, of a summing rider's blocks also wait in the running sums
    until it settles.

    A selection rider's block output (a
    :class:`~repro.localrt.tokens.RowPartial`) stays in row space when
    the job's reduce is the identity (an :class:`IdentityReducer` and no
    combiner): absorbing it is one append to ``rows``, and a reduce
    whose whole shuffle is rows orders them with one stable sort over
    their key codes and gathers its output once, in that order.  A
    record list that arrives after some first spills them into
    ``groups``, in arrival order, so ``groups`` always holds
    the older records and value order within a key is arrival order.
    Readers see every home through :meth:`shuffle` (key -> values) and
    :func:`count_pending_values`.
    """

    job: LocalJob
    #: key -> values in arrival order.  The partition is a function of
    #: the key alone, so the reduce resolves it once per distinct key,
    #: not once per absorbed record.
    groups: "defaultdict[Hashable, list[Any]]" = field(
        default_factory=lambda: defaultdict(list))
    #: dictionary -> (matching ids in reduce order, their totals),
    #: settled in id space.
    sums: "dict[tokens.TokenDictionary, tuple[np.ndarray, np.ndarray]]" \
        = field(default_factory=dict)
    summed_records: int = 0
    #: What map waves added and the job's pattern has not filtered yet.
    pending: "WaveShuffle | None" = None
    #: The row-space partials absorbed since ``groups`` last grew, in
    #: arrival order.
    rows: "list[tokens.RowPartial]" = field(default_factory=list)
    #: Map tasks absorbed (:func:`absorb_map_result`).
    map_tasks: int = 0
    map_input_records: int = 0
    map_output_records: int = 0
    #: Job-level counters (framework built-ins + user counters).
    counters: Counters = field(default_factory=Counters)
    #: How a map wave over a reader treats the job, resolved at the
    #: job's first wave over it (:mod:`repro.localrt.parallel`): ``(the
    #: reader, the job's batch kernel or None for per-record, whether
    #: the wave sums the job's blocks)``.
    route: "tuple[RecordReader, BlockMapper | None, bool] | None" = None

    def __post_init__(self) -> None:
        # Exact types: a subclass may reduce differently.
        self._rows_in_order = (type(self.job.reducer) is IdentityReducer
                               and self.job.combiner is None)

    def absorb(self, records: MapOutput) -> None:
        """Add one map task's (possibly combined) output to the shuffle."""
        self.map_output_records += len(records)
        if isinstance(records, tokens.RowPartial) and self._rows_in_order:
            self.rows.append(records)
            return
        if self.rows:
            self._spill_rows()
        groups = self.groups
        for key, value in records:
            groups[key].append(value)

    def adopt_sums(self, dictionary: tokens.TokenDictionary,
                   ids: np.ndarray, totals: np.ndarray,
                   records: int) -> None:
        """Add ``totals`` of the ids ``ids`` of ``dictionary``, in the
        job's reduce order, to the id-space shuffle, as the sums of
        ``records`` records.  A job that already holds sums against the
        dictionary merges the two in one dense array, in that order."""
        held = self.sums.get(dictionary)
        if held is not None and len(held[0]) and len(ids):
            order = dictionary.order(self.job.num_partitions, max(
                int(held[0].max()), int(ids.max())))
            acc = np.zeros(len(order), np.int64)
            acc[held[0]] = held[1]
            acc[ids] += totals
            ids = order[acc[order] != 0]
            totals = acc[ids]
        elif held is not None and len(held[0]):
            ids, totals = held
        self.sums[dictionary] = (ids, totals)
        self.summed_records += records

    def settle(self) -> None:
        """Fold what map waves added in bulk into the shuffle (a no-op
        when they added nothing since the last call)."""
        pending, self.pending = self.pending, None
        if pending is not None:
            pending.settle(self)

    def _spill_rows(self) -> None:
        """Move the row-space partials into ``groups``, oldest first."""
        groups = self.groups
        for partial in self.rows:
            for key, value in partial:
                groups[key].append(value)
        self.rows = []

    def shuffle(self) -> "Mapping[Hashable, list[Any]]":
        """The shuffle as key -> values: ``groups`` (into which any
        row-space partials are spilled first), plus each id held in
        ``sums`` (after :meth:`settle`) decoded once, as
        ``[its total]``."""
        self.settle()
        if self.rows:
            self._spill_rows()
        if not self.sums:
            return self.groups
        merged: dict[Hashable, list[Any]] = dict(self.groups)
        for dictionary, (ids, totals) in self.sums.items():
            for key, total in _decoded(dictionary, ids, totals):
                values = merged.get(key)
                merged[key] = [total] if values is None else values + [total]
        return merged

    def replace_shuffle(self, groups: "defaultdict[Hashable, list[Any]]",
                        ) -> None:
        """Make ``groups`` the whole shuffle (what a fold of
        :meth:`shuffle` leaves)."""
        self.groups = groups
        self.sums = {}
        self.summed_records = 0
        self.pending = None
        self.rows = []


def batch_mapper_for(job: LocalJob, reader: RecordReader,
                     ) -> "BlockMapper | None":
    """The job's mapper as a batch kernel, or ``None`` for per-record.

    A job takes the batched path when its mapper implements
    :class:`BlockMapper`, and a :class:`BlockMapper` must vouch for the
    wave's reader: one that declines it is a wiring error, so this
    raises :class:`ExecutionError` naming the job, the mapper and the
    reader rather than dispatching the kernel's job per record.
    """
    mapper = job.mapper
    if not isinstance(mapper, BlockMapper):
        return None
    if not mapper.supports_reader(reader):
        raise ExecutionError(
            f"job {job.job_id!r}: {type(mapper).__name__} does not support "
            f"{type(reader).__name__}; pass a reader its map_block kernel "
            f"supports, or construct the job with batched=False")
    return mapper


def _collect_per_record(jobs: list[LocalJob], reader: RecordReader,
                        block_text: str, base_offset: int,
                        ) -> tuple[int, list[list[Record]],
                                   "list[Counters | None]"]:
    """The original record-at-a-time loop (shared parse, per-job dispatch).

    Mappers that mix in :class:`CounterUser` are shallow-copied per task
    (as Hadoop instantiates a fresh Mapper per task), so each task's
    user counters start from zero and reach the job only through the
    returned :class:`Counters`.
    """
    mappers = []
    task_counters: list[Counters | None] = []
    for job in jobs:
        if isinstance(job.mapper, CounterUser):
            mapper = copy.copy(job.mapper)
            counters = Counters()
            mapper.attach_counters(counters)
            mappers.append(mapper)
            task_counters.append(counters)
        else:
            mappers.append(job.mapper)
            task_counters.append(None)
    buffers: list[list[Record]] = [[] for _ in jobs]
    record_count = 0
    for key, value in reader.read(block_text, base_offset):
        record_count += 1
        for mapper, buffer in zip(mappers, buffers):
            buffer.extend(mapper.map(key, value))
    outputs = []
    for job, buffer in zip(jobs, buffers):
        if job.combiner is not None:
            buffer = _combine(job, buffer)
        outputs.append(buffer)
    return record_count, outputs, task_counters


def collect_map_outputs(jobs: list[LocalJob], reader: RecordReader,
                        block_data: "bytes | BlockData",
                        base_offset: int = 0, *,
                        kernels: "Sequence[BlockMapper | None] | None" = None,
                        ) -> tuple[int, list[MapOutput],
                                   "list[Counters | None]"]:
    """The pure (side-effect-free) half of a shared map task.

    Splits the wave's jobs into batched and per-record subsets (see
    :func:`batch_mapper_for`; a caller that resolved them already
    passes each job's kernel, or ``None``, as ``kernels``).  Batched
    jobs receive one shared :class:`BlockData` wrapping the block's
    bytes, so decoding and tokenization are amortized across every job
    in the wave; per-record jobs share one reader parse of the decoded
    text.  Per-job combiners apply identically on both paths.  Returns
    ``(record_count, outputs_per_job, counters_per_job)`` without
    touching any job's shuffle state, so a wave can collect every block
    before it absorbs any (see :mod:`repro.localrt.parallel`).  A
    selection kernel's output may be a partial still in row space
    (:data:`MapOutput`).  Every path must agree on the block's record
    count; a batch kernel that disagrees with the reader (or another
    kernel) raises :class:`ExecutionError` rather than silently
    corrupting ``map_input_records``.

    ``block_data`` is the block's bytes or a :class:`BlockData`, used
    as it is: a per-record mapper decodes the block, so it is read if
    it was not; a kernel reads it only for a view the table lacks.
    """
    if not jobs:
        raise ExecutionError("map task with no participating job")
    if kernels is None:
        kernels = [batch_mapper_for(job, reader) for job in jobs]
    data = (block_data if isinstance(block_data, BlockData)
            else BlockData(block_data))
    if not any(kernel is not None for kernel in kernels):
        return _collect_per_record(jobs, reader, data.text(), base_offset)
    fallback_jobs = [job for job, kernel in zip(jobs, kernels)
                     if kernel is None]
    record_count: int | None = None
    fallback_outputs: list[list[Record]] = []
    fallback_counters: list[Counters | None] = []
    if fallback_jobs:
        record_count, fallback_outputs, fallback_counters = \
            _collect_per_record(fallback_jobs, reader, data.text(),
                                base_offset)
    outputs: list[MapOutput] = []
    task_counters: list[Counters | None] = []
    fallback_at = 0
    for job, kernel in zip(jobs, kernels):
        if kernel is None:
            buffer = fallback_outputs[fallback_at]
            counters = fallback_counters[fallback_at]
            fallback_at += 1
            outputs.append(buffer)
            task_counters.append(counters)
            continue
        count, buffer, counters = kernel.map_block(data, base_offset)
        if record_count is None:
            record_count = count
        elif count != record_count:
            raise ExecutionError(
                f"{job.job_id}: batch kernel {type(kernel).__name__} "
                f"reported {count} records where the wave saw "
                f"{record_count}")
        if job.combiner is not None and not kernel.combined_output:
            buffer = _combine(job, buffer)
        outputs.append(buffer)
        task_counters.append(counters)
    assert record_count is not None
    return record_count, outputs, task_counters


def _combine(job: LocalJob, records: list[Record]) -> list[Record]:
    """Apply the job's combiner to one map task's output."""
    assert job.combiner is not None
    grouped: dict[Hashable, list[Any]] = defaultdict(list)
    for key, value in records:
        grouped[key].append(value)
    combined: list[Record] = []
    for key in grouped:
        combined.extend(job.combiner.reduce(key, grouped[key]))
    return combined


def absorb_map_result(state: JobRunState, record_count: int,
                      buffer: MapOutput,
                      task_counters: "Counters | None") -> None:
    """Fold one map task's result (records + counters) into a job state.

    The record counts reach the job's ``framework`` counters once, at
    its reduce (:func:`run_reduce`)."""
    state.map_tasks += 1
    state.map_input_records += record_count
    if task_counters is not None:
        state.counters.merge(task_counters)
    state.absorb(buffer)


def count_pending_values(state: JobRunState) -> int:
    """Total values currently buffered in the shuffle (reduce input size)."""
    state.settle()
    return (sum(map(len, state.groups.values())) + state.summed_records
            + sum(map(len, state.rows)))


def run_reduce(state: JobRunState,
               tracer: Tracer | None = None) -> list[Record]:
    """Shuffle-sort-reduce: produce the job's final output, sorted by key.

    The distinct keys are partitioned (:func:`default_partitioner`, once
    per key) and processed in sorted order within each partition
    (Hadoop's sort phase), partitions in index order.  A job whose whole
    shuffle is row-space partials gets the same order from one stable
    sort of its rows (:func:`_rows_in_reduce_order`), and one whose
    whole shuffle is one id-space pair holds its ids in that order
    already (:meth:`JobRunState.adopt_sums`).  An enabled
    ``tracer`` records the whole phase as one ``reduce.job`` span.
    """
    if tracer is not None and tracer.enabled:
        with tracer.span("reduce.job", subject=state.job.job_id):
            return _run_reduce(state)
    return _run_reduce(state)


def _run_reduce(state: JobRunState) -> list[Record]:
    state.settle()
    if state.map_tasks:
        # Booked once here rather than on every absorbed task; a job
        # that absorbed one task has both cells, even at zero.
        state.counters.increment(FRAMEWORK_GROUP, "map_input_records",
                                 state.map_input_records)
        state.counters.increment(FRAMEWORK_GROUP, "map_output_records",
                                 state.map_output_records)
    output: list[Record]
    if state.rows and not state.groups and not state.sums:
        output = _rows_in_reduce_order(state.rows, state.job.num_partitions)
    elif len(state.sums) == 1 and not state.groups and not state.rows:
        [(dictionary, (ids, totals))] = state.sums.items()
        output = list(_decoded(dictionary, ids, totals))
    else:
        output = _reduce_groups(state)
    state.counters.increment(FRAMEWORK_GROUP, "reduce_output_records",
                             len(output))
    return output


def _reduce_groups(state: JobRunState) -> list[Record]:
    """The general reduce: the shuffle's distinct keys bucketed by
    partition and sorted by :func:`_sort_key`, one reducer call each."""
    reducer = state.job.reducer
    if isinstance(reducer, CounterUser):
        reducer = copy.copy(reducer)
        reducer.attach_counters(state.counters)
    groups = state.shuffle()
    num_partitions = state.job.num_partitions
    buckets: list[list[Hashable]] = [[] for _ in range(num_partitions)]
    for key in groups:
        buckets[default_partitioner(key, num_partitions)].append(key)
    output: list[Record] = []
    for bucket in buckets:
        for key in sorted(bucket, key=_sort_key):
            output.extend(reducer.reduce(key, groups[key]))
    return output


def _decoded(dictionary: tokens.TokenDictionary, ids: np.ndarray,
             totals: np.ndarray) -> "Iterator[Record]":
    """``(word, total)`` per id of ``ids``, in their order: what
    :class:`SumReducer` makes of ``[total]`` for each word.  The ids
    come from the dictionary's reduce order, so its ``word_array``
    reaches them."""
    return zip(dictionary.word_array[ids].tolist(), totals.tolist())


def _rows_in_reduce_order(partials: list[tokens.RowPartial],
                          num_partitions: int) -> list[Record]:
    """An identity reduce over row-space partials: their records in
    partition index order, then :func:`_sort_key` order, then arrival.

    ``hashes % P`` is :func:`default_partitioner`'s partition and the
    order code sorts as the key's ``repr`` (equal exactly when the
    ``(int, int)`` keys are), so a stable ``lexsort`` on the two puts
    equal keys' records in arrival order — the bucket, sort and
    :class:`IdentityReducer` order of the ``groups`` path.  The
    partitions go to the sort in the narrowest unsigned type that holds
    them (a byte, for up to 256), which ``lexsort`` orders by radix.
    The partials' record arrays are joined and permuted as arrays: the
    one pass over the job's records is the ``tolist`` that builds its
    output.
    """
    hashes = np.concatenate([partial.hashes for partial in partials])
    order = np.concatenate([partial.order for partial in partials])
    records = np.concatenate([partial.records for partial in partials])
    partitions = (hashes % num_partitions).astype(
        np.min_scalar_type(num_partitions - 1))
    return records[np.lexsort((order, partitions))].tolist()


def _sort_key(key: Hashable) -> tuple[str, str]:
    """Total order over heterogeneous keys: type name, then repr."""
    return (type(key).__name__, repr(key))
