"""Ready-made jobs mirroring the paper's workloads, for the local runtime.

* :class:`PatternWordCount` — the modified wordcount of Section V.B:
  counts only words matching a user-specified regular expression.
* :class:`SelectionMapper` — the SQL selection of Section V.G:
  ``SELECT * FROM lineitem WHERE l_quantity < VAL``.
* :class:`AggregationMapper` — a per-group SUM used by the Section V.G
  output-collection extension (partial aggregation across sub-jobs).

Each workload has two mapper implementations: the original per-record
class, and a batched :class:`~repro.localrt.api.BlockMapper` kernel
(:class:`PatternWordCountBlock`, :class:`SelectionBlockMapper`,
:class:`AggregationBlockMapper`) that consumes one whole block of raw
bytes per call and is observably identical to running the per-record
mapper over every record — same outputs after the combiner, same record
counts, same counters.  The job factories build the batched kernels by
default (``batched=False`` restores the per-record classes, which the
benchmarks use as their baseline).  A batched kernel only runs under a
reader it supports: a wave with any other reader raises
:class:`~repro.common.errors.ExecutionError` instead of falling back to
per-record dispatch.
"""

from __future__ import annotations

import re
from itertools import chain
from operator import sub
from typing import Any, Hashable, Iterator, NamedTuple, Sequence, cast

import numpy as np

from ..common.errors import ExecutionError
from ..workloads.tpch import LINEITEM_COLUMNS
from . import tokens
from .api import (
    BlockData,
    BlockMapper,
    IdentityReducer,
    LocalJob,
    Mapper,
    Record,
    SumReducer,
)
from .counters import Counters, CounterUser
from .engine import JobRunState
from .records import DelimitedReader, RecordReader


class PatternWordCount(Mapper, CounterUser):
    """Emit ``(word, 1)`` for every word matching ``pattern``.

    Reports Hadoop-style user counters under the ``wordcount`` group:
    ``words_scanned`` and ``words_matched``.
    """

    def __init__(self, pattern: str) -> None:
        try:
            self._regex = re.compile(pattern)
        except re.error as exc:
            raise ExecutionError(f"bad wordcount pattern {pattern!r}: {exc}") from exc
        self.pattern = pattern

    def map(self, key: Hashable, value: Any) -> Iterator[Record]:
        words = str(value).split()
        matched = 0
        for word in words:
            if self._regex.match(word):
                matched += 1
                yield (word, 1)
        self.counters.increment("wordcount", "words_scanned", len(words))
        self.counters.increment("wordcount", "words_matched", matched)


class PatternWordCountBlock(PatternWordCount, BlockMapper):
    """Batched wordcount: one gather per block, not one loop per record.

    ``map_block`` works from the block's dictionary-encoded token counts
    (:meth:`~repro.localrt.api.BlockData.encoded`, built once per block
    per store handle and shared with every other wordcount job that
    maps it, in this wave or a later lap) and from the pattern's
    verdict array in the handle's token dictionary
    (:mod:`repro.localrt.tokens`, shared with every job that has this
    pattern): it gathers the array at the block's ids and masks the
    block's ids and counts with the result.  The regex itself runs once
    per vocabulary word per pattern per store handle; the mapper holds
    no state that grows with the blocks it has mapped.

    A map wave does not call ``map_block`` for a rider that
    :meth:`rides_wave`: the pattern commutes with the job's per-word
    sum, so :meth:`absorb_wave` adds the wave's unfiltered block sums
    (:class:`~repro.localrt.tokens.WaveSums`, built once for the whole
    wave) to its scan's running sums (:class:`ScanSums`) once, and a
    rider's raw totals are the running sums less where they stood when
    it joined (its :class:`SumsInterval`).  The pattern is applied once,
    when the job's shuffle is read.  That is a summing job's one way
    into id space; ``map_block`` serves every other rider and direct
    caller with a plain record list, which the job's shuffle keeps in
    ``groups``.

    ``counted`` controls the emission shape: ``True`` (for jobs with the
    standard ``SumReducer`` combiner) emits one ``(word, count)`` record
    per matching word in first-occurrence order — exactly the
    per-record path's post-combine output, so ``combined_output`` is
    set and the engine skips the redundant combine pass.  ``False`` (no
    combiner) emits ``count`` copies of ``(word, 1)`` so job-level
    record counters stay identical.  Construct with ``counted`` matching
    the job's combiner or the framework counters will diverge.
    """

    def __init__(self, pattern: str, *, counted: bool = True) -> None:
        super().__init__(pattern)
        self.counted = counted
        self.combined_output = counted

    def map_block(self, data: "bytes | BlockData", base_offset: int,
                  ) -> tuple[int, list[Record], Counters | None]:
        block = data if isinstance(data, BlockData) else BlockData(data)
        encoded = block.encoded()
        hit = encoded.dictionary.matches(encoded.ids, self.pattern,
                                         self._regex.match)
        ids, counts = encoded.ids[hit], encoded.counts[hit]
        word = encoded.dictionary.words.__getitem__
        outputs: list[Record]
        if self.counted:
            outputs = list(zip(map(word, ids.tolist()), counts.tolist()))
        else:
            outputs = [(word(i), 1) for i in np.repeat(ids, counts).tolist()]
        counters = Counters()
        if block.line_count():
            # The per-record path increments once per record, creating
            # the counter entries even when every count is zero; an
            # empty block creates none.  Mirror that exactly.
            counters.increment("wordcount", "words_scanned", encoded.total)
            counters.increment("wordcount", "words_matched",
                               int(counts.sum()))
        return block.line_count(), outputs, counters

    @staticmethod
    def rides_wave(job: LocalJob, reader: RecordReader) -> bool:
        """Whether a map wave over ``reader``'s records sums ``job``'s
        blocks for it (:meth:`absorb_wave`) instead of mapping them: its
        mapper is exactly this kernel, emitting counts, and its reducer
        and combiner are exactly :class:`SumReducer` (a subclass may map
        or reduce otherwise)."""
        mapper = job.mapper
        return (type(mapper) is PatternWordCountBlock and mapper.counted
                and type(job.reducer) is SumReducer
                and type(job.combiner) is SumReducer
                and mapper.supports_reader(reader))

    @staticmethod
    def absorb_wave(blocks: "Sequence[tokens.EncodedBlock]",
                    riders: Sequence[JobRunState],
                    scan: "ScanSums | None" = None) -> None:
        """Fold one wave — its encoded ``blocks``, every one of which
        each of ``riders`` rode — into its riders that
        :meth:`rides_wave`.

        The wave's blocks are summed once and added to ``scan``'s
        running sums once (by default, a scan of this wave alone; see
        :meth:`ScanSums.add_wave`), so a rider already in them costs
        nothing here.  Its map task, record and token counts wait in the
        running sums, like its word totals, until its shuffle is read.
        The riding patterns' verdict arrays are marked used, under one
        lock acquisition per dictionary the wave met.
        """
        if scan is None:
            scan = ScanSums()
        shared = tokens.WaveSums.of(blocks)
        scan.add_wave(shared, riders)
        # Insertion-ordered sets: the order patterns claim free room in
        # a verdict table must not depend on string hashing.
        patterns = dict.fromkeys([kernel.pattern for kernel in cast(
            "list[PatternWordCountBlock]",
            [state.job.mapper for state in riders])])
        for sums in shared:  # one per dictionary
            sums.dictionary.keep_verdicts(patterns)


def _counts(parts: "Sequence[tokens.WaveSums]") -> tuple[int, ...]:
    """What mapping the blocks summed in ``parts`` books besides its
    records (:attr:`~repro.localrt.tokens.WaveSums.counts`, added)."""
    if len(parts) == 1:
        return parts[0].counts
    return tuple(map(sum, zip(*(part.counts for part in parts))))


def _widened(pair: np.ndarray, width: int) -> np.ndarray:
    """A writable ``(2, width)`` copy of ``pair``, zero past its end."""
    grown = np.zeros((2, width), np.int64)
    grown[:, :pair.shape[1]] = pair
    return grown


def _dense(sums: tokens.WaveSums) -> np.ndarray:
    """``sums`` as a ``(2, span)`` array indexed by id."""
    pair = np.zeros((2, sums.span), np.int64)
    sums.add_to(pair)
    return pair


class RunningSums:
    """One scan's running sums against one token dictionary: ``pair``,
    every word's summed count and block presence (as in
    :class:`~repro.localrt.tokens.WaveSums`, indexed by id, grown with
    the dictionary), and ``counts`` (as in
    :attr:`~repro.localrt.tokens.WaveSums.counts`), over every
    block its waves' summing riders rode; ``waves`` counts the adds.
    int64 keeps every total exact, so differences of them are too."""

    __slots__ = ("dictionary", "pair", "rows", "counts", "waves", "_mark")

    def __init__(self, dictionary: tokens.TokenDictionary) -> None:
        self.dictionary = dictionary
        self.pair = np.zeros((2, len(dictionary.words)), np.int64)
        self.rows = tuple(self.pair)  # what a wave's add writes through
        self.counts: tuple[int, ...] = (0, 0, 0, 0)
        self.waves = 0
        self._mark: "tuple[int, np.ndarray | None, tuple[int, ...]] | None" \
            = None

    def mark(self) -> "tuple[int, np.ndarray | None, tuple[int, ...]]":
        """Where the sums stand: ``(waves, pair, counts)``, the pair a
        read-only copy (``None`` before the first add) shared by every
        rider that joins before the next add."""
        if self._mark is None:
            self._mark = (self.waves, tokens.frozen(self.pair.copy())
                          if self.waves else None, self.counts)
        return self._mark

    def add(self, sums: tokens.WaveSums) -> None:
        """Add one wave's sums and counts."""
        if sums.span > self.pair.shape[1]:
            self.pair = _widened(self.pair, max(
                sums.span, len(self.dictionary.words)))
            self.rows = tuple(self.pair)
        sums.add_to(self.rows)
        tasks, lines, scanned, nonempty = self.counts
        more_tasks, more_lines, more_scanned, more_nonempty = sums.counts
        self.counts = (tasks + more_tasks, lines + more_lines,
                       scanned + more_scanned, nonempty + more_nonempty)
        self.waves += 1
        self._mark = None


class SumsInterval:
    """A summing wordcount rider's shuffle before its pattern applies:
    the part of its scan's :class:`RunningSums` it rode.

    ``base`` is where the running sums stood when the rider joined
    (``None``: at zero), shared with the riders that joined beside it,
    and ``counts`` likewise, so the rider's raw totals are the running
    pair less ``base``.  ``waves`` is the running sums' add count after
    the last wave the rider rode: an interval that missed a wave of its
    running sums cannot say what it rode, and settling it raises.

    :meth:`settle` takes the difference and applies the pattern in the
    dictionary's reduce order (:func:`_settle_pair`) — the only place
    the pattern is applied — so the job's ``sums`` hold what mapping
    every block would have absorbed, and its record counts are the
    block presence of the matching ids: one combined record per (block,
    matching word).
    """

    __slots__ = ("kernel", "running", "waves", "base", "counts")

    def __init__(self, kernel: PatternWordCountBlock, running: RunningSums,
                 ) -> None:
        self.kernel = kernel
        self.running = running
        self.waves, self.base, self.counts = running.mark()

    def settle(self, state: JobRunState) -> None:
        running = self.running
        if self.waves != running.waves:
            raise ExecutionError(
                f"job {state.job.job_id!r}: its scan's running sums "
                f"passed a wave it did not ride")
        pair, base = running.pair, self.base
        if base is not None:
            pair = pair - (base if base.shape[1] == pair.shape[1]
                           else _widened(base, pair.shape[1]))
        _settle(state, self.kernel, [(running.dictionary, pair)],
                tuple(map(sub, running.counts, self.counts)))


class ScanSums:
    """The running sums of one circular scan's summing wordcount riders:
    its current :class:`RunningSums`, ``None`` until a wave adds to it.

    Owned by whoever runs the scan's waves and settles its riders — a
    :class:`~repro.localrt.live.SharedScanCore`'s wave thread — so it
    has no lock.  A wave is one merged sub-job: each of its riders rides
    every block of it.  Every rider of a running sums rides every wave
    added to it until it settles (the scan loop never pauses a rider); a
    rider absent from a wave of its running sums raises when it settles.
    """

    __slots__ = ("running",)

    def __init__(self) -> None:
        self.running: RunningSums | None = None

    def add_wave(self, shared: "Sequence[tokens.WaveSums]",
                 riders: Sequence[JobRunState]) -> None:
        """Fold one wave, summed (``shared``, one per dictionary), into
        ``riders``, each of which rode every block of it.

        The sums are added to the running sums once.  A rider already
        in them costs one check; one that joins opens its interval at
        where they stood before the add (:meth:`RunningSums.mark`).  A
        wave against a new dictionary — a roll-over at the wave boundary
        — starts new running sums, and every rider closes its interval
        on the old ones as it joins them; a wave whose blocks span two
        dictionaries settles every rider's share of it directly, from
        one dense pair per dictionary, and starts over at the next.
        """
        running = self.running
        if len(shared) > 1:
            self.running = None
            parts = [(part.dictionary, _dense(part)) for part in shared]
            counts = _counts(shared)
            for state in riders:
                state.settle()
                _settle(state, cast(PatternWordCountBlock, state.job.mapper),
                        parts, counts)
            return
        sums, = shared
        if running is None or running.dictionary is not sums.dictionary:
            running = self.running = RunningSums(sums.dictionary)
        after = running.waves + 1
        for state in riders:
            interval = state.pending
            if not isinstance(interval, SumsInterval) or \
                    interval.running is not running:
                state.settle()  # an interval on other sums closes first
                interval = state.pending = SumsInterval(
                    cast(PatternWordCountBlock, state.job.mapper), running)
            elif interval.waves != running.waves:
                interval.waves = -1  # it settles with the error
                continue
            interval.waves = after
        running.add(sums)


def _settle(state: JobRunState, kernel: PatternWordCountBlock,
            parts: "Sequence[tuple[tokens.TokenDictionary, np.ndarray]]",
            counts: tuple[int, ...]) -> None:
    """Book a rider's raw sums — per dictionary, a ``(2, n)`` pair
    indexed by id, as :class:`RunningSums` keeps it — and the map
    counts of the blocks they sum into ``state``, applying its
    pattern."""
    tasks, lines, scanned, nonempty = counts
    state.map_tasks += tasks
    state.map_input_records += lines
    matched = sum(_settle_pair(state, kernel, dictionary, pair)
                  for dictionary, pair in parts)
    if nonempty:
        state.counters.increment("wordcount", "words_scanned", scanned)
    if nonempty or matched:
        state.counters.increment("wordcount", "words_matched", matched)


def _settle_pair(state: JobRunState, kernel: PatternWordCountBlock,
                 dictionary: tokens.TokenDictionary,
                 pair: np.ndarray) -> int:
    """One dictionary's part of :func:`_settle`: the ids with a nonzero
    total that the pattern matches, in the job's reduce order — the
    ids of the dictionary's order that the pattern matches
    (:meth:`~repro.localrt.tokens.TokenDictionary.matching_order`),
    masked by the totals — go to ``state``'s ``sums`` with their totals,
    and their presence to its record counts; returns their total
    (``words_matched``)."""
    totals, presence = pair
    order, matching = dictionary.matching_order(
        state.job.num_partitions, len(totals) - 1, kernel.pattern,
        kernel._regex.match)
    if len(order) > len(totals):
        totals, presence = _widened(pair, len(order))
    if matching is not None:
        ids = matching[totals[matching] != 0]
    else:  # no room in the verdict table: match the words summed
        ids = order[totals[order] != 0]
        ids = ids[dictionary.matches(ids, kernel.pattern,
                                     kernel._regex.match)]
    kept = totals[ids]
    records = int(presence[ids].sum())
    state.adopt_sums(dictionary, ids, kept, records)
    state.map_output_records += records
    return int(kept.sum())


def wordcount_job(job_id: str, pattern: str, *,
                  num_partitions: int = 4, use_combiner: bool = True,
                  batched: bool = True) -> LocalJob:
    """A pattern-restricted wordcount job (combiner on by default, as in
    Hadoop's wordcount example).

    ``batched=True`` (default) installs the block-level kernel; pass
    ``batched=False`` for the original record-at-a-time mapper (the
    benchmark baseline).
    """
    mapper: Mapper = (PatternWordCountBlock(pattern, counted=use_combiner)
                      if batched else PatternWordCount(pattern))
    return LocalJob(
        job_id=job_id,
        mapper=mapper,
        reducer=SumReducer(),
        combiner=SumReducer() if use_combiner else None,
        num_partitions=num_partitions,
    )


_QUANTITY_INDEX = LINEITEM_COLUMNS.index("l_quantity")
_ORDERKEY_INDEX = LINEITEM_COLUMNS.index("l_orderkey")
_LINENUMBER_INDEX = LINEITEM_COLUMNS.index("l_linenumber")
_RETURNFLAG_INDEX = LINEITEM_COLUMNS.index("l_returnflag")
_EXTENDEDPRICE_INDEX = LINEITEM_COLUMNS.index("l_extendedprice")


class SelectionMapper(Mapper):
    """``WHERE l_quantity < threshold``: emit qualifying rows keyed by
    (orderkey, linenumber)."""

    def __init__(self, threshold: float) -> None:
        if not threshold > 0:  # NaN too: it compares false either way
            raise ExecutionError("selection threshold must be positive")
        self.threshold = threshold

    def map(self, key: Hashable, value: Any) -> Iterator[Record]:
        fields = value  # a tuple from DelimitedReader
        if float(fields[_QUANTITY_INDEX]) < self.threshold:
            row_key = (int(fields[_ORDERKEY_INDEX]),
                       int(fields[_LINENUMBER_INDEX]))
            yield (row_key, fields)


class DelimitedBlockMapper(BlockMapper):
    """Base for block kernels over :class:`DelimitedReader`-shaped input.

    Carries the reader configuration the kernel reproduces at the byte
    level — a kernel only batches (``supports_reader``) for a
    :class:`DelimitedReader` with exactly this delimiter and field-count
    contract, because it re-implements that reader's record model:
    ``"\\n"``-delimited lines, non-overlapping left-to-right delimiter
    splits, and the same ``malformed record at offset ...`` error.
    """

    def __init__(self, delimiter: str = "|",
                 expected_fields: int | None = None) -> None:
        if not delimiter:
            raise ValueError("delimiter must be non-empty")
        self.delimiter = delimiter
        self.expected_fields = expected_fields
        self._delimiter_bytes = delimiter.encode("utf-8")

    def supports_reader(self, reader: RecordReader) -> bool:
        return (type(reader) is DelimitedReader
                and reader.delimiter == self.delimiter
                and reader.expected_fields == self.expected_fields)

    def _check_fields(self, line: bytes, offset: int) -> None:
        """Reader-identical field-count validation, without splitting."""
        if self.expected_fields is None:
            return
        found = line.count(self._delimiter_bytes) + 1
        if found != self.expected_fields:
            raise ValueError(
                f"malformed record at offset {offset}: "
                f"{found} fields, expected {self.expected_fields}")

    def _raw_field(self, line: bytes, index: int) -> bytes:
        """Field ``index`` of a delimited line, no full split or decode."""
        delim = self._delimiter_bytes
        start = 0
        for _ in range(index):
            start = line.index(delim, start) + len(delim)
        end = line.find(delim, start)
        return line[start:end if end >= 0 else len(line)]


#: The order code of a key part of ``w + 1`` decimal digits ``d_0 ..
#: d_w`` is ``sum((d_p + 1) * 11 ** (8 - p))``: its digits, each one up,
#: read in base 11 left-aligned to nine places.  A place past the end
#: weighs nothing, so decimal strings compare by code as they compare as
#: strings, a prefix first (``12 < 120 < 1200 < 13``), and two codes
#: below ``11 ** 9`` pair into one int64.
_KEY_PART_LIMIT = 10 ** 9
_ORDER_RADIX = 11 ** 9
_TENS = 10 ** np.arange(1, 9, dtype=np.int64)
_DIGIT_PLACES = 10 ** np.arange(8, -1, -1, dtype=np.int64)
_BASE_11_PLACES = 11 ** np.arange(8, -1, -1, dtype=np.int64)
_ORDER_PAD = np.cumsum(_BASE_11_PLACES)


def _key_codes(records: "list[Record]") -> "tuple[Any, Any] | None":
    """The ``(hashes, order)`` codes of selection records' ``(int, int)``
    keys, as int64 arrays (see :class:`~repro.localrt.tokens.RowPartial`),
    or ``None`` unless every key part is in ``[0, 10**9)``.  ``hashes``
    is Python's own ``hash`` of each key."""
    keys = [key for key, _ in records]
    try:
        values = np.fromiter(chain.from_iterable(keys), np.int64,
                             2 * len(keys))
    except OverflowError:
        return None
    if values.min() < 0 or values.max() >= _KEY_PART_LIMIT:
        return None
    width = np.searchsorted(_TENS, values, side="right")  # digits - 1
    right_aligned = (values[:, None] // _DIGIT_PLACES % 10) @ _BASE_11_PLACES
    codes = right_aligned * _BASE_11_PLACES[width] + _ORDER_PAD[width]
    return (np.fromiter(map(hash, keys), np.int64, len(keys)),
            codes[0::2] * _ORDER_RADIX + codes[1::2])


class QuantityColumn(NamedTuple):
    """A lineitem block's ``l_quantity`` column as the selection riders
    read it (the ``quantities`` view; every array in it read-only).

    A selection ``l_quantity < t`` selects a prefix of the column sorted,
    so the rows it selects are the same prefix of the column's argsort,
    put back in row order (:meth:`rows_below`): a sort of the selected
    rows alone, not a pass over the block's."""

    #: Each line's end offset: its newline (a line starts one byte past
    #: the one before it).
    ends: np.ndarray
    #: The rows in ascending quantity order (a stable argsort), int32.
    rank: np.ndarray
    #: The quantities in that order (float64; each an integer).
    ranked: np.ndarray

    def rows_below(self, threshold: float) -> np.ndarray:
        """The rows whose quantity is ``< threshold``, ascending — what
        ``flatnonzero(quantities < threshold)`` is."""
        rows = self.rank[:self.ranked.searchsorted(threshold)].copy()
        rows.sort()
        return rows


class SelectionBlockMapper(SelectionMapper, DelimitedBlockMapper):
    """Columnar single-pass selection over a raw lineitem block.

    The fast path vectorizes the whole predicate with numpy: one pass
    over the raw bytes locates every newline and delimiter, validates
    the field-count contract for all lines at once, parses the
    ``l_quantity`` column as integers and keeps it sorted, with its
    argsort (a :class:`QuantityColumn`), so ``< threshold`` is a prefix.
    Decode + split + tuple construction — the dominant per-record cost —
    is paid only for *qualifying* rows, and only once per row: the
    parsed record goes into the block's row table
    (:class:`~repro.localrt.tokens.RowTable`, a ``memo`` view keyed by
    the reader contract, never by the threshold), where every other
    selection rider — in this wave or, through the store handle's
    derived-view table, on a later lap — finds it.  A warm visit is a
    ``searchsorted``, a sort of the selected rows, and one gather of
    their kept flags, records and key codes each.  Blocks the vectorized
    shape check rejects (malformed lines, non-integer quantities, a
    multi-byte delimiter, a trailing partial line) take a per-line
    scalar path that reproduces the per-record reader's exact errors and
    results, and shares rows through the same table.

    A rider's output is a :class:`~repro.localrt.tokens.RowPartial` —
    its records, gathered from the row table as one object array, plus
    their keys' codes, which the table keeps beside each record or the
    rider computes with the records it parses — which an identity-reduce
    job keeps in row space until its reduce orders every row with one
    sort and gathers them once.  Where a key part falls outside the
    codes' range, the output is the plain record list.
    """

    def __init__(self, threshold: float, *, delimiter: str = "|",
                 expected_fields: int | None = len(LINEITEM_COLUMNS)) -> None:
        SelectionMapper.__init__(self, threshold)
        DelimitedBlockMapper.__init__(self, delimiter, expected_fields)
        self._rows_view = ("rows", self._delimiter_bytes, expected_fields)

    def map_block(self, data: "bytes | BlockData", base_offset: int,
                  ) -> tuple[int, "list[Record] | tokens.RowPartial",
                             Counters | None]:
        block = data if isinstance(data, BlockData) else BlockData(data)
        column = self._columnar_quantities(block)
        if column is None:
            return self._map_block_lines(block, base_offset)
        count = len(column.ends)
        table: tokens.RowTable = block.memo(
            self._rows_view, lambda: tokens.RowTable(count, len(block)))
        hits = column.rows_below(self.threshold)
        # The flags before the slots (see RowTable): a row flagged here
        # is in the gather below, and a row not flagged is parsed here.
        # (``take``: a gather at int32 rows without converting them.)
        kept = table.kept.take(hits)
        records = table.slots.take(hits)
        if np.count_nonzero(kept) < len(kept):
            missing = np.flatnonzero(~kept)
            rows = hits[missing]
            ends = column.ends
            starts = np.where(rows > 0, ends[rows - 1] + 1, 0)
            raw = block.raw()
            lines = [raw[start:end] for start, end
                     in zip(starts.tolist(), ends[rows].tolist())]
            parsed = list(map(self._row_record, lines))
            table.keep(rows, map(len, lines), parsed, _key_codes(parsed))
            records[missing] = np.fromiter(parsed, object, len(parsed))
        # Read after the slots: a record kept without codes clears
        # ``ordered`` before its slot fills, and every row this rider
        # parsed has its codes written, kept or past the budget.
        if not table.ordered:
            return count, records.tolist(), None
        return count, tokens.RowPartial(records, table.hashes.take(hits),
                                        table.order.take(hits)), None

    def _columnar_quantities(self, block: BlockData,
                             ) -> "QuantityColumn | None":
        """Vectorized parse of the ``l_quantity`` column.

        Returns the block's :class:`QuantityColumn` — each line's end
        offset, and the column parsed per line in ascending order with
        its argsort — or ``None`` whenever the block falls outside the
        fast path's strict shape: multi-byte delimiter, unknown field
        count, a block not ending in ``\\n``, any line whose delimiter
        count differs from the expected-fields contract, or a quantity
        that is not a plain 1-9 digit ASCII integer.  Callers must treat
        ``None`` as "use the per-line path", which reproduces the
        reader-identical errors for genuinely malformed input.

        The result (including a rejection) is memoized per
        ``(delimiter, field count)``, so every selection rider — in this
        wave or, through the store handle's derived-view table, on a
        later lap — shares one structural pass and one sort: the
        delimited analogue of the shared tokenization.
        """
        if self.expected_fields is None or len(self._delimiter_bytes) != 1:
            return None
        key = ("quantities", self._delimiter_bytes, self.expected_fields)
        return block.memo(
            key, lambda: self._columnar_quantities_uncached(block))

    def _columnar_quantities_uncached(self, block: BlockData,
                                      ) -> "QuantityColumn | None":
        expected = self.expected_fields
        if expected is None or expected <= _QUANTITY_INDEX:
            return None
        delimiter = self._delimiter_bytes[0]
        if delimiter == 10:
            return None
        arr = np.frombuffer(block.raw(), dtype=np.uint8)
        if arr.size == 0:
            return None
        # One structural pass: newlines and delimiters together.  A
        # well-formed block has exactly ``expected - 1`` delimiters then
        # one newline per record, so the sorted mark positions tile into
        # rows of ``expected_fields`` — and the per-cell byte checks
        # below reject every misalignment (a line with a missing or
        # extra delimiter shifts some newline out of the last column).
        marks = np.flatnonzero((arr == 10) | (arr == delimiter))
        if (marks.size == 0 or marks.size % expected
                or marks[-1] != arr.size - 1):
            return None
        mark_bytes = arr[marks].reshape(-1, expected)
        if not bool((mark_bytes[:, -1] == 10).all()
                    and (mark_bytes[:, :-1] == delimiter).all()):
            return None
        table = marks.reshape(-1, expected)
        # A copy: the result outlives the wave (``memo``), and a strided
        # view would keep the whole mark table alive behind one column.
        newlines = table[:, -1].copy()
        field_starts = table[:, _QUANTITY_INDEX - 1] + 1
        widths = table[:, _QUANTITY_INDEX] - field_starts
        max_width = int(widths.max())
        if int(widths.min()) < 1 or max_width > 9:
            return None
        values = np.zeros(newlines.size, dtype=np.int64)
        for position in range(max_width):
            active = widths > position
            probe = np.minimum(field_starts + position, arr.size - 1)
            digits = arr[probe] - np.uint8(48)  # a non-digit wraps past 9
            if bool(((digits > 9) & active).any()):
                return None
            values = np.where(active, values * 10 + digits, values)
        # The copies own their memory: the view outlives the wave.
        rank = np.argsort(values, kind="stable").astype(np.int32)
        return QuantityColumn(
            tokens.frozen(newlines), tokens.frozen(rank),
            tokens.frozen(values[rank].astype(np.float64)))

    def _row_record(self, line: bytes) -> Record:
        """The record every selection emits for the row ``line``: the
        one place a row is decoded and split, reached only for a row
        whose slot in the block's row table is empty."""
        fields = tuple(line.decode("utf-8").split(self.delimiter))
        return ((int(fields[_ORDERKEY_INDEX]),
                 int(fields[_LINENUMBER_INDEX])), fields)

    def _map_block_lines(self, block: BlockData, base_offset: int,
                         ) -> tuple[int, list[Record], Counters | None]:
        """Scalar per-line path (and error-reporting authority).

        A row table is published only by a pass that raised nothing:
        the block's first visitor fills a fresh one as it selects, so a
        malformed block raises before there is anything to publish — on
        every lap, in exactly the per-record reader's order."""
        first_pass = None

        def vouched() -> "tokens.RowTable":
            nonlocal first_pass
            table = tokens.RowTable(len(block.lines()), len(block))
            first_pass = self._select_lines(block, base_offset, table)
            return table

        table = block.memo(self._rows_view, vouched)
        if first_pass is not None:
            return first_pass
        return self._select_lines(block, base_offset, table)

    def _select_lines(self, block: BlockData, base_offset: int,
                      table: "tokens.RowTable",
                      ) -> tuple[int, list[Record], Counters | None]:
        threshold = self.threshold
        slots = table.slots
        outputs: list[Record] = []
        parsed: list[tuple[int, int, Record]] = []
        offset = base_offset
        count = 0
        for row, line in enumerate(block.lines()):
            count += 1
            self._check_fields(line, offset)
            quantity = self._raw_field(line, _QUANTITY_INDEX)
            # Decode the tiny slice so numeric parsing is exactly the
            # per-record path's float(str), unicode digits and all.
            if float(quantity.decode("utf-8")) < threshold:
                record = slots[row]
                if record is None:
                    record = self._row_record(line)
                    parsed.append((row, len(line), record))
                outputs.append(record)
            offset += len(line) + 1
        if parsed:
            table.keep(*zip(*parsed))
        return count, outputs, None


def selection_job(job_id: str, threshold: float, *,
                  num_partitions: int = 4, batched: bool = True) -> LocalJob:
    """A lineitem selection job (identity reduce: output = selected rows).

    The batched kernel (default) expects the runner to use a
    ``DelimitedReader("|", len(LINEITEM_COLUMNS))``; a wave with any
    other reader raises :class:`ExecutionError`.
    """
    mapper: Mapper = (SelectionBlockMapper(threshold)
                      if batched else SelectionMapper(threshold))
    return LocalJob(
        job_id=job_id,
        mapper=mapper,
        reducer=IdentityReducer(),
        num_partitions=num_partitions,
    )


class AggregationMapper(Mapper):
    """Emit ``(l_returnflag, l_extendedprice)`` per row (SUM ... GROUP BY)."""

    def map(self, key: Hashable, value: Any) -> Iterator[Record]:
        fields = value
        yield (fields[_RETURNFLAG_INDEX], float(fields[_EXTENDEDPRICE_INDEX]))


class AggregationBlockMapper(AggregationMapper, DelimitedBlockMapper):
    """Block-level SUM(extendedprice) GROUP BY returnflag.

    Accumulates one running partial sum per flag in row order — float
    addition in exactly the order ``SumReducer``'s ``sum()`` would apply
    it, so partial sums are bit-identical to the per-record + combiner
    path.  Emits one ``(flag, partial_sum)`` record per distinct flag in
    first-occurrence order — already-combined output
    (``combined_output``), so the engine skips its combine pass; only
    meaningful for jobs with the standard ``SumReducer`` combiner (which
    :func:`aggregation_job` always has).
    """

    combined_output = True

    def __init__(self, *, delimiter: str = "|",
                 expected_fields: int | None = len(LINEITEM_COLUMNS)) -> None:
        DelimitedBlockMapper.__init__(self, delimiter, expected_fields)

    def map_block(self, data: "bytes | BlockData", base_offset: int,
                  ) -> tuple[int, list[Record], Counters | None]:
        block = data if isinstance(data, BlockData) else BlockData(data)
        count, sums = block.memo(
            ("flag_sums", self._delimiter_bytes, self.expected_fields),
            lambda: self._flag_sums(block, base_offset))
        return count, list(sums), None

    def _flag_sums(self, block: BlockData, base_offset: int,
                   ) -> tuple[int, tuple[Record, ...]]:
        """The block's record count and its ``(flag, partial_sum)``
        records: a function of the bytes and the reader contract alone
        (``base_offset`` only words the error), so every aggregation
        rider — in this wave or, through the store handle's
        derived-view table, on a later lap — shares one per-line pass.
        A malformed block raises instead, so it is never memoized."""
        delim = self._delimiter_bytes
        expected = self.expected_fields
        sums: dict[str, float] = {}
        offset = base_offset
        count = 0
        for line in block.lines():
            count += 1
            fields = line.split(delim)
            if expected is not None and len(fields) != expected:
                raise ValueError(
                    f"malformed record at offset {offset}: "
                    f"{len(fields)} fields, expected {expected}")
            flag = fields[_RETURNFLAG_INDEX].decode("utf-8")
            price = float(fields[_EXTENDEDPRICE_INDEX].decode("utf-8"))
            sums[flag] = sums.get(flag, 0.0) + price
            offset += len(line) + 1
        return count, tuple(sums.items())


def aggregation_job(job_id: str, *, num_partitions: int = 2,
                    batched: bool = True) -> LocalJob:
    """SUM(extendedprice) GROUP BY returnflag, with a map-side combiner.

    Because SUM is algebraic, per-segment partial sums can be folded
    progressively — the property the Section V.G extension exploits.
    The batched kernel (default) folds each block's partial sums in one
    pass over the raw bytes.
    """
    mapper: Mapper = (AggregationBlockMapper()
                      if batched else AggregationMapper())
    return LocalJob(
        job_id=job_id,
        mapper=mapper,
        reducer=SumReducer(),
        combiner=SumReducer(),
        num_partitions=num_partitions,
    )
