"""Section V.G output-collection extension tests."""

import pytest

from repro.common.config import ExecutionConfig
from repro.ext.aggregation import compare_collection_schemes, fold_partial_aggregates
from repro.localrt.api import LocalJob, Reducer, default_partitioner
from repro.localrt.engine import (
    JobRunState,
    count_pending_values,
    run_reduce,
)
from repro.localrt.jobs import aggregation_job, wordcount_job
from repro.localrt.records import DelimitedReader, TextLineReader
from repro.localrt.runners import SharedScanRunner
from repro.localrt.storage import BlockStore
from repro.workloads.text import TextCorpusGenerator
from repro.workloads.tpch import LINEITEM_COLUMNS, LineitemGenerator
from tests.localrt.helpers import run_map_on_block


@pytest.fixture(scope="module")
def lineitem_store(tmp_path_factory):
    directory = tmp_path_factory.mktemp("agg-lineitem")
    return BlockStore.create(directory,
                             LineitemGenerator(seed=11).rows_for_bytes(90_000),
                             block_size_bytes=12_000)


@pytest.fixture
def reader():
    return DelimitedReader("|", len(LINEITEM_COLUMNS))


def test_fold_collapses_to_one_value_per_key():
    state = JobRunState(wordcount_job("w", ".*"))
    run_map_on_block([state], TextLineReader(), b"x x y\nx y z\n")
    # The combiner already collapsed within the block; add a second block.
    run_map_on_block([state], TextLineReader(), b"x z z\n")
    assert count_pending_values(state) > 3
    fold_partial_aggregates([state])
    assert count_pending_values(state) == 3  # one partial per distinct key


def test_fold_skips_jobs_without_combiner():
    state = JobRunState(wordcount_job("w", ".*", use_combiner=False))
    run_map_on_block([state], TextLineReader(), b"x x y\n")
    before = count_pending_values(state)
    fold_partial_aggregates([state])
    assert count_pending_values(state) == before


def test_progressive_scheme_matches_at_end(lineitem_store, reader):
    comparison = compare_collection_schemes(
        lineitem_store, lambda: [aggregation_job("agg")],
        reader=reader, blocks_per_segment=2)
    assert comparison.outputs_match()


def test_progressive_scheme_shrinks_final_merge(lineitem_store, reader):
    comparison = compare_collection_schemes(
        lineitem_store, lambda: [aggregation_job("agg")],
        reader=reader, blocks_per_segment=2)
    reduction = comparison.final_merge_reduction("agg")
    assert reduction > 0.5  # progressive folding removes most of the merge


def test_staggered_arrivals_still_match(lineitem_store, reader):
    comparison = compare_collection_schemes(
        lineitem_store,
        lambda: [aggregation_job("a"), aggregation_job("b")],
        reader=reader, blocks_per_segment=2,
        arrival_iterations={"b": 2})
    assert comparison.outputs_match()
    assert comparison.final_merge_reduction("b") > 0.0


@pytest.mark.parametrize("num_partitions", [1, 3, 4])
def test_fold_after_every_iteration_equals_collect_at_end(tmp_path,
                                                          num_partitions):
    """Staggered riders, folded after every iteration: the reduce sees
    one partial per distinct key and emits exactly what collect-at-end
    emits, key for key, partition for partition."""
    lines = list(TextCorpusGenerator(vocabulary_size=60,
                                     seed=9).lines(16_000))
    store = BlockStore.create(tmp_path / "corpus", lines, 1_500)
    arrivals = {"b": 1, "c": 3}

    def run(hook):
        jobs = [wordcount_job(job_id, pattern, num_partitions=num_partitions)
                for job_id, pattern in (("a", ".*"), ("b", ".*a$"),
                                        ("c", "^[b-m].*"))]
        return SharedScanRunner(
            store, ExecutionConfig(blocks_per_segment=2)).run(
                jobs, arrivals, on_iteration_end=hook)

    at_end = run(None)
    folded = run(lambda _i, states: fold_partial_aggregates(states))
    for job_id, result in at_end.results.items():
        other = folded.results[job_id]
        assert other.output == result.output
        assert other.reduce_input_values == len(result.output)
        assert result.reduce_input_values == result.map_output_records
        assert other.map_output_records == result.map_output_records
        assert list(other.counters) == list(result.counters)


class _SumByInitial(Reducer):
    """An algebraic combiner that also coarsens its key."""

    def reduce(self, key, values):
        yield (key[0], sum(values))


@pytest.mark.parametrize("num_partitions", [1, 3, 4])
def test_fold_files_a_partial_under_the_key_the_combiner_returned(
        num_partitions):
    """``"ad"`` folds to ``"a"``: the partial joins ``"a"``'s own values
    (one slot, one reduce call) and is reduced in ``"a"``'s partition —
    there is no per-partition table of ``"ad"``'s to leave it behind in."""
    assert all(default_partitioner("ad", n) != default_partitioner("a", n)
               for n in (3, 4))

    def state_of(buffer):
        state = JobRunState(LocalJob(
            job_id="j", mapper=None, reducer=_SumByInitial(),
            combiner=_SumByInitial(), num_partitions=num_partitions))
        state.absorb(buffer)
        return state

    state = state_of([("ad", 1), ("a", 2), ("ad", 3), ("c", 5)])
    fold_partial_aggregates([state])
    assert dict(state.groups) == {"a": [4, 2], "c": [5]}
    assert count_pending_values(state) == 3
    output = run_reduce(state)
    assert sorted(output) == [("a", 6), ("c", 5)]
    # Exactly what a job that had absorbed the folded records reduces to.
    assert output == run_reduce(state_of([("a", 4), ("a", 2), ("c", 5)]))
