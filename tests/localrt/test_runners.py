"""FIFO vs shared-scan runner equivalence and I/O accounting tests."""

import pytest

from repro.common.config import ExecutionConfig
from repro.common.errors import ExecutionError
from repro.localrt.jobs import wordcount_job
from repro.localrt.runners import FifoLocalRunner, SharedScanRunner

PATTERNS = ["^b.*", ".*ing$", "^[aeiou].*"]


def make_jobs():
    return [wordcount_job(f"wc{i}", p) for i, p in enumerate(PATTERNS)]


def test_fifo_reads_file_per_job(corpus_store):
    report = FifoLocalRunner(corpus_store).run(make_jobs())
    assert report.blocks_read == 3 * corpus_store.num_blocks
    assert report.bytes_read == 3 * corpus_store.total_bytes


def test_shared_scan_reads_once_when_simultaneous(corpus_store):
    report = SharedScanRunner(corpus_store, ExecutionConfig(blocks_per_segment=4)).run(make_jobs())
    assert report.blocks_read == corpus_store.num_blocks
    assert report.bytes_read == corpus_store.total_bytes


def test_outputs_identical_across_runners(corpus_store):
    fifo = FifoLocalRunner(corpus_store).run(make_jobs())
    shared = SharedScanRunner(corpus_store, ExecutionConfig(blocks_per_segment=3)).run(
        make_jobs(), arrival_iterations={"wc1": 1, "wc2": 2})
    for job_id in ("wc0", "wc1", "wc2"):
        assert (dict(fifo.results[job_id].output)
                == dict(shared.results[job_id].output))


def test_staggered_arrivals_read_between_1x_and_fifo(corpus_store):
    shared = SharedScanRunner(corpus_store, ExecutionConfig(blocks_per_segment=3)).run(
        make_jobs(), arrival_iterations={"wc1": 1, "wc2": 3})
    assert corpus_store.total_bytes < shared.bytes_read
    assert shared.bytes_read < 3 * corpus_store.total_bytes


def test_completed_iteration_recorded(corpus_store):
    shared = SharedScanRunner(corpus_store, ExecutionConfig(blocks_per_segment=4)).run(
        make_jobs(), arrival_iterations={"wc2": 1})
    # 10 blocks, segment 4 -> chunks 4,4,2 per cycle.
    assert shared.results["wc0"].completed_iteration == 2
    assert shared.results["wc2"].completed_iteration > 2


def test_gap_between_arrivals_skips_idle_iterations(corpus_store):
    report = SharedScanRunner(corpus_store, ExecutionConfig(blocks_per_segment=4)).run(
        [wordcount_job("a", ".*"), wordcount_job("b", ".*")],
        arrival_iterations={"b": 50})
    assert report.results["a"].completed_iteration < 50
    assert report.results["b"].completed_iteration >= 50


def test_duplicate_job_ids_rejected(corpus_store):
    jobs = [wordcount_job("dup", ".*"), wordcount_job("dup", ".*")]
    with pytest.raises(ExecutionError, match="duplicate"):
        SharedScanRunner(corpus_store).run(jobs)
    with pytest.raises(ExecutionError, match="duplicate"):
        FifoLocalRunner(corpus_store).run(jobs)


def test_unknown_arrival_rejected(corpus_store):
    with pytest.raises(ExecutionError, match="unknown"):
        SharedScanRunner(corpus_store).run(
            [wordcount_job("a", ".*")], arrival_iterations={"ghost": 0})


def test_negative_arrival_rejected(corpus_store):
    for arrival in (-1, 1.5):  # a fractional iteration is no iteration
        with pytest.raises(ExecutionError):
            SharedScanRunner(corpus_store).run(
                [wordcount_job("a", ".*")], arrival_iterations={"a": arrival})


def test_no_jobs_rejected(corpus_store):
    with pytest.raises(ExecutionError):
        SharedScanRunner(corpus_store).run([])
    with pytest.raises(ExecutionError):
        FifoLocalRunner(corpus_store).run([])


def test_iteration_hook_called(corpus_store):
    calls = []
    SharedScanRunner(corpus_store, ExecutionConfig(blocks_per_segment=4)).run(
        [wordcount_job("a", ".*")],
        on_iteration_end=lambda i, states: calls.append((i, len(states))))
    assert [i for i, _ in calls] == [0, 1, 2]
    assert all(count == 1 for _, count in calls)


def test_run_report_missing_job(corpus_store):
    report = FifoLocalRunner(corpus_store).run([wordcount_job("a", ".*")])
    with pytest.raises(ExecutionError):
        report.result("ghost")
