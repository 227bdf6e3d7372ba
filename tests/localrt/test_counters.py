"""Hadoop-style counter tests."""

import pytest

from repro.common.config import ExecutionConfig
from repro.common.errors import ExecutionError
from repro.localrt.counters import FRAMEWORK_GROUP, Counters, CounterUser
from repro.localrt.engine import JobRunState, absorb_map_result, run_reduce
from repro.localrt.jobs import PatternWordCount, wordcount_job
from repro.localrt.runners import FifoLocalRunner, SharedScanRunner


def test_increment_and_value():
    counters = Counters()
    counters.increment("g", "n", 3)
    counters.increment("g", "n")
    assert counters.value("g", "n") == 4
    assert counters.value("g", "missing") == 0
    assert counters.value("other", "n") == 0


def test_negative_total_rejected():
    counters = Counters()
    counters.increment("g", "n", 2)
    counters.increment("g", "n", -2)
    with pytest.raises(ExecutionError, match="negative"):
        counters.increment("g", "n", -1)


def test_empty_names_rejected():
    with pytest.raises(ExecutionError):
        Counters().increment("", "n")
    with pytest.raises(ExecutionError):
        Counters().increment("g", "")


def test_merge():
    a, b = Counters(), Counters()
    a.increment("g", "x", 1)
    b.increment("g", "x", 2)
    b.increment("h", "y", 5)
    a.merge(b)
    assert a.value("g", "x") == 3
    assert a.value("h", "y") == 5


def test_iteration_and_format():
    counters = Counters()
    counters.increment("b", "two", 2)
    counters.increment("a", "one", 1)
    assert list(counters) == [("a", "one", 1), ("b", "two", 2)]
    assert len(counters) == 2
    text = counters.format()
    assert "a" in text and "one=1" in text


def test_counter_user_fallback():
    class Thing(CounterUser):
        pass

    thing = Thing()
    thing.counters.increment("g", "n")
    assert thing.counters.value("g", "n") == 1


def test_framework_counters_populated(corpus_store):
    report = FifoLocalRunner(corpus_store).run([wordcount_job("wc", ".*")])
    counters = report.results["wc"].counters
    result = report.results["wc"]
    assert counters.value(FRAMEWORK_GROUP, "map_input_records") \
        == result.map_input_records
    assert counters.value(FRAMEWORK_GROUP, "reduce_output_records") \
        == result.reduce_output_records


def test_framework_map_cells_exist_once_a_task_is_absorbed():
    """The ``framework`` map cells of a job are the sums over the tasks it
    absorbed — one task is enough to create both, even at zero (an
    empty block) — and a job that absorbed none has neither."""
    def reduced(tasks):
        state = JobRunState(wordcount_job("wc", ".*", batched=False))
        for record_count, outputs in tasks:
            absorb_map_result(state, record_count, outputs, None)
        run_reduce(state)
        return state.counters.group(FRAMEWORK_GROUP)

    assert reduced([]) == {"reduce_output_records": 0}
    assert reduced([(0, [])]) == {"map_input_records": 0,
                                  "map_output_records": 0,
                                  "reduce_output_records": 0}
    assert reduced([(2, [("a", 1), ("b", 1), ("a", 1)]), (0, []),
                    (1, [("c", 1)])]) == {"map_input_records": 3,
                                          "map_output_records": 4,
                                          "reduce_output_records": 3}


def test_framework_map_cells_count_every_block(corpus_store):
    """On a real run the map cells equal the record counts summed block
    by block, as the per-record mapper sees them."""
    mapper = PatternWordCount("^b.*")
    lines = outputs = 0
    for index in range(corpus_store.num_blocks):
        for line in corpus_store.read_block_bytes(index).decode().splitlines():
            lines += 1
            outputs += len(list(mapper.map(None, line)))
    for batched in (True, False):
        job = wordcount_job("wc", "^b.*", use_combiner=False, batched=batched)
        counters = FifoLocalRunner(corpus_store).run([job]).results["wc"].counters
        assert counters.value(FRAMEWORK_GROUP, "map_input_records") == lines
        assert counters.value(FRAMEWORK_GROUP, "map_output_records") == outputs


def test_user_counters_aggregate_across_blocks(corpus_store):
    report = FifoLocalRunner(corpus_store).run(
        [wordcount_job("wc", "^b.*")])
    counters = report.results["wc"].counters
    scanned = counters.value("wordcount", "words_scanned")
    matched = counters.value("wordcount", "words_matched")
    assert scanned > 0
    assert 0 < matched < scanned
    # Every matched word survives the combiner as a count: the final
    # per-word counts sum back to the raw match counter.
    total_occurrences = sum(count for _, count
                            in report.results["wc"].output)
    assert matched == total_occurrences


def test_counters_identical_serial_vs_parallel(corpus_store):
    serial = FifoLocalRunner(corpus_store, ExecutionConfig()).run(
        [wordcount_job("wc", "^b.*")])
    parallel = FifoLocalRunner(
        corpus_store,
        ExecutionConfig(map_backend="threads", map_workers=4)).run(
        [wordcount_job("wc", "^b.*")])
    assert (list(serial.results["wc"].counters)
            == list(parallel.results["wc"].counters))


def test_counters_in_shared_scan(corpus_store):
    jobs = [wordcount_job("a", "^b.*"), wordcount_job("b", ".*ing$")]
    report = SharedScanRunner(
        corpus_store, ExecutionConfig(blocks_per_segment=3)).run(
        jobs, {"b": 1})
    for job_id in ("a", "b"):
        counters = report.results[job_id].counters
        assert counters.value("wordcount", "words_scanned") > 0
    # Both jobs scanned the full corpus despite different admissions.
    assert (report.results["a"].counters.value("wordcount", "words_scanned")
            == report.results["b"].counters.value("wordcount",
                                                  "words_scanned"))
