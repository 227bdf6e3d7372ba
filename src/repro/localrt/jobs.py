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
from typing import Any, Hashable, Iterator, Sequence, cast

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
    (:class:`~repro.localrt.tokens.WaveSums`, built once for every rider
    that rode the same blocks) to the rider's :class:`WaveWordSums`, and
    the pattern is applied once, when the job's shuffle is read.  That
    is a summing job's one way into id space; ``map_block`` serves
    every other rider and direct caller with a plain record list, which
    the job's shuffle keeps in ``groups``.

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
    def absorb_wave(groups: "Sequence[tuple[Sequence[tokens.EncodedBlock], "
                            "Sequence[JobRunState]]]") -> None:
        """Fold one wave into its riders that :meth:`rides_wave`, given
        as ``(blocks, riders)`` groups: the encoded blocks the group's
        riders each rode in this wave, in scan order.

        Per group, the blocks are summed once (per dictionary) and every
        rider adds the sums to its :class:`WaveWordSums` — nothing is
        gathered, masked or allocated per (block, rider).  The map task
        and record counts, and the ``words_scanned`` counter, do not
        depend on the pattern and are booked now; the riding patterns'
        verdict arrays are marked used, under one lock acquisition per
        dictionary the wave met.
        """
        # Insertion-ordered sets: the order patterns claim free room in
        # a verdict table must not depend on string hashing.
        dictionaries: dict[tokens.TokenDictionary, None] = {}
        patterns: dict[str, None] = {}
        for blocks, riders in groups:
            shared = tokens.WaveSums.of(blocks)
            dictionaries.update(dict.fromkeys(
                sums.dictionary for sums in shared))
            lines = sum(block.lines for block in blocks)
            scanned = [block.total for block in blocks if block.lines]
            for state in riders:
                state.map_tasks += len(blocks)
                state.map_input_records += lines
                if scanned:
                    # As per-block counters would: both cells exist once
                    # a non-empty block is mapped, even at zero.
                    state.counters.increment("wordcount", "words_scanned",
                                             sum(scanned))
                    state.counters.increment("wordcount", "words_matched", 0)
                pending = state.pending
                if not isinstance(pending, WaveWordSums):
                    pending = state.pending = WaveWordSums(
                        cast(PatternWordCountBlock, state.job.mapper))
                for sums in shared:
                    pending.add(sums)
                patterns[pending.kernel.pattern] = None
        for dictionary in dictionaries:
            dictionary.keep_verdicts(patterns)


class WaveWordSums:
    """A wave-summed wordcount rider's shuffle before its pattern
    applies, and how it settles into the job's run state: per
    dictionary, every word's summed count and the number of blocks
    holding it, over the :class:`~repro.localrt.tokens.WaveSums` added
    to it.

    Each pair of arrays is as long as its dictionary was when the rider
    first met it, and grows — to the dictionary's size, at least
    doubling, up to :data:`~repro.localrt.tokens.TOKEN_DICTIONARY_CAP`
    — only when a wave's sums reach past it, so a rider's adds cost
    O(its waves' ids).

    :meth:`settle` gathers the pattern's verdicts at the ids with a
    nonzero total — the only place the pattern is applied — so the
    job's ``sums`` hold what mapping every block would have absorbed,
    and its record counts are the block presence of the matching ids:
    one combined record per (block, matching word).
    """

    __slots__ = ("kernel", "arrays")

    def __init__(self, kernel: PatternWordCountBlock) -> None:
        self.kernel = kernel
        #: dictionary -> (totals, presence), two int64 arrays by id.
        self.arrays: dict[tokens.TokenDictionary,
                          tuple[np.ndarray, np.ndarray]] = {}

    def add(self, sums: tokens.WaveSums) -> None:
        """Add one wave's sums: two slice adds, or two scatters at their
        ids."""
        dictionary = sums.dictionary
        held = self.arrays.get(dictionary)
        span = sums.span
        if held is None or len(held[0]) < span:
            size = len(dictionary.words)
            if held is not None:
                size = max(size, min(2 * len(held[0]),
                                     tokens.TOKEN_DICTIONARY_CAP))
            grown = (np.zeros(size, np.int64), np.zeros(size, np.int64))
            if held is not None:
                for old, new in zip(held, grown):
                    new[:len(old)] = old
            held = self.arrays[dictionary] = grown
        totals, presence = held
        if sums.ids is None:
            totals[:span] += sums.totals
            presence[:span] += sums.presence
        else:
            totals[sums.ids] += sums.totals
            presence[sums.ids] += sums.presence

    def settle(self, state: JobRunState) -> None:
        """Apply the pattern, consuming the sums: per dictionary, the
        totals with every word the pattern does not match zeroed go to
        ``state``'s ``sums``, the matching words' presence to its record
        counts and their total to ``words_matched``."""
        arrays, self.arrays = self.arrays, {}
        matched = 0
        for dictionary, (totals, presence) in arrays.items():
            hit = np.flatnonzero(totals)
            kept = dictionary.matches(hit, self.kernel.pattern,
                                      self.kernel._regex.match)
            totals[hit[~kept]] = 0
            hit = hit[kept]
            matched += int(totals[hit].sum())
            records = int(presence[hit].sum())
            state.adopt_sums(dictionary, totals, records)
            state.map_output_records += records
        if matched:
            state.counters.increment("wordcount", "words_matched", matched)


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
        if threshold <= 0:
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


class SelectionBlockMapper(SelectionMapper, DelimitedBlockMapper):
    """Columnar single-pass selection over a raw lineitem block.

    The fast path vectorizes the whole predicate with numpy: one pass
    over the raw bytes locates every newline and delimiter, validates
    the field-count contract for all lines at once, parses the
    ``l_quantity`` column as integers, and applies ``< threshold`` as an
    array mask.  Decode + split + tuple construction — the dominant
    per-record cost — is paid only for *qualifying* rows, and only once
    per row: the parsed record goes into the block's row table
    (:class:`~repro.localrt.tokens.RowTable`, a ``memo`` view keyed by
    the reader contract, never by the threshold), where every other
    selection rider — in this wave or, through the store handle's
    derived-view table, on a later lap — finds it.  A warm visit is a
    mask, a ``flatnonzero`` and a gather.  Blocks the vectorized shape
    check rejects (malformed lines, non-integer quantities, a multi-byte
    delimiter, a trailing partial line) take a per-line scalar path that
    reproduces the per-record reader's exact errors and results, and
    shares rows through the same table.

    A rider's output is a :class:`~repro.localrt.tokens.RowPartial` —
    its records plus their keys' codes, gathered from the row table,
    which keeps them beside each record, or computed with the records a
    rider parses — which an identity-reduce job keeps in row space until
    its reduce orders every row with one sort.  Where a key part falls
    outside the codes' range, the output is the plain record list.
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
        columnar = self._columnar_quantities(block)
        if columnar is None:
            return self._map_block_lines(block, base_offset)
        quantities, ends = columnar
        count = int(ends.size)
        table: tokens.RowTable = block.memo(
            self._rows_view, lambda: tokens.RowTable(count, len(block)))
        hits = np.flatnonzero(quantities < self.threshold)
        outputs: list[Record] = list(map(table.slots.__getitem__,
                                         hits.tolist()))
        if None in outputs:
            missing = [position for position, record in enumerate(outputs)
                       if record is None]
            rows = hits[missing]
            starts = np.where(rows > 0, ends[rows - 1] + 1, 0)
            raw = block.raw()
            lines = [raw[start:end] for start, end
                     in zip(starts.tolist(), ends[rows].tolist())]
            parsed = list(map(self._row_record, lines))
            table.keep(rows.tolist(), map(len, lines), parsed,
                       _key_codes(parsed))
            for position, record in zip(missing, parsed):
                outputs[position] = record
        # Read after the slots: a record kept without codes clears
        # ``ordered`` before its slot fills, and every row this rider
        # parsed has its codes written, kept or past the budget.
        if not table.ordered:
            return count, outputs, None
        return count, tokens.RowPartial(outputs, table.hashes[hits],
                                        table.order[hits]), None

    def _columnar_quantities(self, block: BlockData,
                             ) -> "tuple[Any, Any] | None":
        """Vectorized parse of the ``l_quantity`` column.

        Returns ``(quantities, line_ends)`` — a float64 array of the
        column parsed per line and each line's end offset (its newline;
        a line starts one byte past the one before it) — or ``None``
        whenever the block falls outside the fast path's strict shape:
        multi-byte delimiter, unknown field count, a block not ending in
        ``\\n``, any line whose delimiter count differs from the
        expected-fields contract, or a quantity that is not a plain 1-9
        digit ASCII integer.  Callers must treat
        ``None`` as "use the per-line path", which reproduces the
        reader-identical errors for genuinely malformed input.

        The result (including a rejection) is memoized per
        ``(delimiter, field count)``, so every selection rider — in this
        wave or, through the store handle's derived-view table, on a
        later lap — shares one structural pass: the delimited analogue
        of the shared tokenization.  Both arrays in it are read-only.
        """
        if self.expected_fields is None or len(self._delimiter_bytes) != 1:
            return None
        key = ("quantities", self._delimiter_bytes, self.expected_fields)
        return block.memo(
            key, lambda: self._columnar_quantities_uncached(block))

    def _columnar_quantities_uncached(self, block: BlockData,
                                      ) -> "tuple[Any, Any] | None":
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
        return (tokens.frozen(values.astype(np.float64)),
                tokens.frozen(newlines))

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
