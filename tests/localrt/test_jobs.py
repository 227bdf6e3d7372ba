"""Ready-made local job tests (wordcount, selection, aggregation)."""

import pickle

import pytest

import repro.localrt.tokens as tokens
from repro.common.errors import ExecutionError
from repro.localrt.api import BlockData
from repro.localrt.engine import collect_map_outputs
from repro.localrt.jobs import (
    PatternWordCount,
    PatternWordCountBlock,
    SelectionBlockMapper,
    SelectionMapper,
    aggregation_job,
    selection_job,
    wordcount_job,
)
from repro.localrt.records import DelimitedReader, TextLineReader
from repro.localrt.runners import FifoLocalRunner
from repro.localrt.storage import BlockStore
from repro.workloads.tpch import (
    LINEITEM_COLUMNS,
    LineitemGenerator,
    quantity_threshold_for_selectivity,
)


@pytest.fixture(scope="module")
def lineitem_store(tmp_path_factory):
    directory = tmp_path_factory.mktemp("lineitem")
    generator = LineitemGenerator(seed=5)
    return BlockStore.create(directory, generator.rows_for_bytes(120_000),
                             block_size_bytes=15_000)


def test_pattern_wordcount_filters():
    mapper = PatternWordCount("^th.*")
    out = list(mapper.map(0, "the thing other"))
    assert out == [("the", 1), ("thing", 1)]


def test_pattern_wordcount_bad_regex():
    with pytest.raises(ExecutionError):
        PatternWordCount("([")


def test_wordcount_job_has_combiner_by_default():
    assert wordcount_job("a", ".*").combiner is not None
    assert wordcount_job("a", ".*", use_combiner=False).combiner is None


def test_selection_selectivity(lineitem_store):
    threshold = quantity_threshold_for_selectivity(0.10)
    reader = DelimitedReader("|", len(LINEITEM_COLUMNS))
    report = FifoLocalRunner(lineitem_store, reader=reader).run(
        [selection_job("s", threshold)])
    result = report.results["s"]
    measured = result.reduce_output_records / result.map_input_records
    assert measured == pytest.approx(0.10, abs=0.03)


def test_selection_rows_pass_through_unchanged(lineitem_store):
    reader = DelimitedReader("|", len(LINEITEM_COLUMNS))
    report = FifoLocalRunner(lineitem_store, reader=reader).run(
        [selection_job("s", 51.0)])  # selects everything
    result = report.results["s"]
    assert result.reduce_output_records == result.map_input_records
    _, row = result.output[0]
    assert len(row) == len(LINEITEM_COLUMNS)


def test_selection_threshold_validated():
    with pytest.raises(ExecutionError):
        selection_job("s", 0.0)


def test_aggregation_sums_by_returnflag(lineitem_store):
    reader = DelimitedReader("|", len(LINEITEM_COLUMNS))
    report = FifoLocalRunner(lineitem_store, reader=reader).run(
        [aggregation_job("agg")])
    totals = dict(report.results["agg"].output)
    assert set(totals) <= {"R", "A", "N"}
    assert all(v > 0 for v in totals.values())
    # Cross-check against a direct scan.
    expected = {}
    qty_index = LINEITEM_COLUMNS.index("l_returnflag")
    price_index = LINEITEM_COLUMNS.index("l_extendedprice")
    for i in range(lineitem_store.num_blocks):
        for line in lineitem_store.read_block_bytes(i).decode().splitlines():
            fields = line.split("|")
            expected[fields[qty_index]] = (expected.get(fields[qty_index], 0.0)
                                           + float(fields[price_index]))
    for flag, total in totals.items():
        assert total == pytest.approx(expected[flag])


# --------------------------------------------------------- batched kernels

def _signature(result):
    """Everything observable about one job's outcome."""
    return (sorted(map(repr, result.output)), result.map_input_records,
            result.map_output_records, result.reduce_output_records,
            result.counters.format())


def _run(store, reader, jobs):
    report = FifoLocalRunner(store, reader=reader).run(jobs)
    return {job_id: _signature(result)
            for job_id, result in report.results.items()}


@pytest.mark.parametrize("use_combiner", [True, False])
def test_batched_wordcount_observably_identical(tmp_path, use_combiner):
    store = BlockStore.create(
        tmp_path / "s",
        ["the thing sings", "other things", "the the thought"],
        block_size_bytes=25)
    reader = TextLineReader()

    def jobs(batched):
        return [wordcount_job("w", "^th.*", use_combiner=use_combiner,
                              batched=batched)]

    assert _run(store, reader, jobs(True)) == _run(store, reader, jobs(False))


def test_batched_selection_observably_identical(lineitem_store):
    reader = DelimitedReader("|", len(LINEITEM_COLUMNS))
    threshold = quantity_threshold_for_selectivity(0.10)

    def jobs(batched):
        return [selection_job("s", threshold, batched=batched)]

    assert (_run(lineitem_store, reader, jobs(True))
            == _run(lineitem_store, reader, jobs(False)))


def test_batched_aggregation_observably_identical(lineitem_store):
    reader = DelimitedReader("|", len(LINEITEM_COLUMNS))

    def jobs(batched):
        return [aggregation_job("a", batched=batched)]

    assert (_run(lineitem_store, reader, jobs(True))
            == _run(lineitem_store, reader, jobs(False)))


def test_selection_scalar_path_identical_without_numpy(
        lineitem_store, monkeypatch):
    """With the columnar parse refusing every block the kernel takes the
    per-line scalar path, and must stay observably identical."""
    reader = DelimitedReader("|", len(LINEITEM_COLUMNS))
    threshold = quantity_threshold_for_selectivity(0.10)
    columnar = _run(lineitem_store, reader, [selection_job("s", threshold)])
    monkeypatch.setattr(SelectionBlockMapper, "_columnar_quantities",
                        lambda self, block: None)
    scalar = _run(lineitem_store, reader, [selection_job("s", threshold)])
    assert columnar == scalar


_ORDERKEY = LINEITEM_COLUMNS.index("l_orderkey")
_LINENUMBER = LINEITEM_COLUMNS.index("l_linenumber")
_QUANTITY = LINEITEM_COLUMNS.index("l_quantity")


def _row(orderkey, linenumber, quantity):
    """A minimal lineitem-shaped row with the fields selection reads."""
    fields = ["1"] * len(LINEITEM_COLUMNS)
    fields[_ORDERKEY] = str(orderkey)
    fields[_LINENUMBER] = str(linenumber)
    fields[_QUANTITY] = str(quantity)
    return "|".join(fields)


@pytest.mark.parametrize("make", [
    SelectionMapper, SelectionBlockMapper,
    lambda threshold: selection_job("s", threshold),
    lambda threshold: selection_job("s", threshold, batched=False)])
@pytest.mark.parametrize("threshold", [float("nan"), 0.0, -1.0])
def test_selection_refuses_a_threshold_that_is_not_positive(make, threshold):
    """NaN included: every ``q < nan`` is false, so the per-record path
    would select nothing while a sorted prefix (``searchsorted(nan)``)
    would select every row."""
    with pytest.raises(ExecutionError, match="positive"):
        make(threshold)


def test_selection_columnar_rejects_malformed_with_reader_error():
    mapper = SelectionBlockMapper(5.0)
    good = (_row(1, 1, 2) + "\n" + _row(2, 1, 7) + "\n").encode()
    count, outputs, _ = mapper.map_block(good, 0)
    assert count == 2
    assert [key for key, _ in outputs] == [(1, 1)]
    # A line violating the field-count contract must raise the exact
    # per-record reader error (via the scalar fallback path).
    reader = DelimitedReader("|", len(LINEITEM_COLUMNS))
    bad = _row(1, 1, 2) + "\n4|5\n"
    with pytest.raises(ValueError) as from_reader:
        list(reader.read(bad))
    with pytest.raises(ValueError) as from_kernel:
        mapper.map_block(bad.encode(), 0)
    assert str(from_kernel.value) == str(from_reader.value)


def test_selection_columnar_rejects_non_integer_quantity():
    # quantity "2.5" is not a plain-digit integer: the vectorized parse
    # must bail to the scalar path, which parses it as float — same as
    # the per-record mapper.
    mapper = SelectionBlockMapper(3.0)
    block = (_row(9, 1, "2.5") + "\n" + _row(9, 2, 7) + "\n").encode()
    count, outputs, _ = mapper.map_block(block, 0)
    assert count == 2
    assert [key for key, _ in outputs] == [(9, 1)]


def test_selection_columnar_requires_trailing_newline():
    mapper = SelectionBlockMapper(50.0)
    # No trailing \n: vectorized shape check refuses; scalar path still
    # yields the dangling record, like split_records does.
    block = (_row(1, 1, 2) + "\n" + _row(2, 1, 7)).encode()
    count, outputs, _ = mapper.map_block(block, 0)
    assert count == 2
    assert len(outputs) == 2


def test_columnar_structural_pass_shared_across_wave(monkeypatch):
    """Two selection kernels on one BlockData must run the structural
    numpy pass once (memoized by delimiter and field count)."""
    calls = []
    original = SelectionBlockMapper._columnar_quantities_uncached

    def spying(self, block):
        calls.append(block)
        return original(self, block)

    monkeypatch.setattr(SelectionBlockMapper, "_columnar_quantities_uncached",
                        spying)
    block = BlockData((_row(1, 1, 2) + "\n" + _row(2, 1, 5) + "\n").encode())
    first = SelectionBlockMapper(5.0)
    second = SelectionBlockMapper(6.0)
    count_a, out_a, _ = first.map_block(block, 0)
    count_b, out_b, _ = second.map_block(block, 0)
    assert calls == [block]  # one structural pass for the wave
    assert count_a == count_b == 2
    assert len(out_a) == 1 and len(out_b) == 2


def test_memoised_columnar_value_owns_only_what_it_needs():
    """The structural pass's result outlives its wave (the store
    handle's derived-view table keeps it), so no array in it may be a
    view that pins a larger intermediate — the mark table is 16 fields
    wide, the value needs one column of it, its sorted copy and its
    argsort (int32).  Nor may the key codes the row table keeps beside
    its records: one int64 each per row, not the digit columns they were
    built from."""
    views = tokens.DerivedViews()
    rows = "".join(_row(order, 1, order % 9 + 1) + "\n"
                   for order in range(1, 40))
    block = BlockData(rows.encode()).bind(views, 0)
    SelectionBlockMapper(5.0).map_block(block, 0)
    (key, value), = ((key, value) for key, value in block._derived.items()
                     if key[0] == "quantities")
    assert views.lookup(0, key) is value
    (_, table), = ((key, value) for key, value in block._derived.items()
                   if key[0] == "rows")
    for array in (*value, table.hashes, table.order):
        assert len(array) == 39
        assert array.dtype.itemsize == (4 if array is value.rank else 8)
        assert array.base is None or array.base.nbytes == array.nbytes


class _CountingRegex:
    """Stands in for a compiled pattern (``re.Pattern.match`` itself
    cannot be patched) and counts the words it is asked about."""

    def __init__(self, regex):
        self._regex = regex
        self.asked = []

    def match(self, word):
        self.asked.append(word)
        return self._regex.match(word)


def test_second_job_with_same_pattern_matches_nothing_again():
    """Verdicts belong to the pattern, not to the job: once any job has
    mapped a block, a fresh job with the same pattern runs zero regex
    matches on it, and only the new words of a block it has not seen."""
    pattern = "^zq.*"  # private to this test: no other verdicts exist
    first = PatternWordCountBlock(pattern)
    first._regex = _CountingRegex(first._regex)
    expected = first.map_block(b"zqa zqb other zqa\n", 0)
    assert sorted(first._regex.asked).count("zqa") == 1  # once per word
    assert {"zqa", "zqb", "other"} <= set(first._regex.asked)

    second = PatternWordCountBlock(pattern)
    second._regex = _CountingRegex(second._regex)
    count, outputs, counters = second.map_block(b"zqa zqb other zqa\n", 0)
    assert second._regex.asked == []
    assert (count, outputs, list(counters)) == (
        expected[0], expected[1], list(expected[2]))
    assert outputs == [("zqa", 2), ("zqb", 1)]
    second.map_block(b"zqa zqnew\n", 0)
    assert second._regex.asked == ["zqnew"]


def test_wordcount_mapper_pickle_size_independent_of_blocks_mapped():
    """The kernel keeps no per-job state that grows with the scan: a job
    pickles to the same size before and after riding it."""
    mapper = PatternWordCountBlock("^w1.*")
    before = len(pickle.dumps(mapper))
    for block in range(20):
        words = " ".join(f"w{block}x{i}" for i in range(50))
        mapper.map_block(f"{words}\n".encode(), 0)
    assert len(pickle.dumps(mapper)) == before


def _task_result(job, data: bytes):
    """One map task's observable result.  Without a combiner the kernel
    emits a word's ``(word, 1)`` records together rather than in
    occurrence order — the shuffle groups by key, so only the multiset
    is observable."""
    count, outputs, counters = collect_map_outputs(
        [job], TextLineReader(), data)
    records = outputs[0] if job.combiner is not None else sorted(outputs[0])
    return count, records, list(counters[0])


@pytest.mark.parametrize("use_combiner", [True, False])
@pytest.mark.parametrize("data", [
    b"",                                  # empty block
    b" \n\t \n  \n",                      # whitespace only
    b"solo solo\nsolo\n",                 # one distinct token
    b"the thing\nthe end",                # no trailing newline
    b"\n\nthe\n\n",                       # blank records around a hit
    b"other words only\n",                # tokens, no hit
], ids=["empty", "whitespace", "one-token", "no-final-newline",
        "blank-lines", "no-hit"])
def test_wordcount_kernel_edge_blocks_equal_per_record(data, use_combiner):
    for pattern in ("^th.*", "^so.*", ".*"):
        job = wordcount_job("w", pattern, use_combiner=use_combiner)
        oracle = wordcount_job("w", pattern, use_combiner=use_combiner,
                               batched=False)  # per-record PatternWordCount
        result = _task_result(job, data)
        assert result == _task_result(oracle, data), pattern
        if use_combiner:
            # combined_output's contract: unique keys in first-occurrence
            # order (the oracle's, checked above), each value what the
            # combiner would leave.
            keys = [key for key, _ in result[1]]
            assert len(set(keys)) == len(keys)
            assert all(list(job.combiner.reduce(key, [value]))
                       == [(key, value)] for key, value in result[1])


@pytest.mark.parametrize("use_combiner", [True, False])
def test_wordcount_kernel_without_a_verdict_vector_equals_per_record(
        use_combiner, monkeypatch):
    """A rider whose pattern finds the verdict table full of vectors in
    use matches the block's own words instead; nothing observable moves."""
    monkeypatch.setattr(tokens, "VERDICT_PATTERNS_CAP", 1)
    data = b"the thing\nsolo the\n\nend"
    block = BlockData(data).bind(tokens.DerivedViews(), 0)  # a fresh table
    jobs = [wordcount_job(pattern, pattern, use_combiner=use_combiner)
            for pattern in ("^th.*", "^so.*", ".*")]
    _, outputs, counters = collect_map_outputs(jobs, TextLineReader(), block)
    dictionary = block.encoded().dictionary
    assert list(dictionary.verdicts) == ["^th.*"]  # the others had no room
    for job, records, job_counters in zip(jobs, outputs, counters):
        oracle = wordcount_job(job.job_id, job.job_id, batched=False,
                               use_combiner=use_combiner)
        _, expected, expected_counters = _task_result(oracle, data)
        if not use_combiner:
            records = sorted(records)
        assert (records, list(job_counters)) == (expected, expected_counters)


def test_batched_kernels_vouch_only_for_exact_reader():
    selection = SelectionBlockMapper(2.0)
    assert selection.supports_reader(
        DelimitedReader("|", len(LINEITEM_COLUMNS)))
    assert not selection.supports_reader(DelimitedReader(","))
    assert not selection.supports_reader(DelimitedReader("|"))
    assert not selection.supports_reader(TextLineReader())
    wordcount = PatternWordCountBlock(".*")
    assert wordcount.supports_reader(TextLineReader())
    assert not wordcount.supports_reader(DelimitedReader("|"))
