"""Map/combine/shuffle/reduce engine tests."""

import pytest

from repro.common.errors import ExecutionError
from repro.localrt.api import BlockData, BlockMapper, LocalJob, SumReducer
from repro.localrt.counters import Counters
from repro.localrt.engine import (
    JobRunState,
    collect_map_outputs,
    count_pending_values,
    run_reduce,
)
from repro.localrt.jobs import PatternWordCount, PatternWordCountBlock
from repro.localrt.records import DelimitedReader, TextLineReader
from repro.localrt.tokens import DerivedViews
from tests.localrt.helpers import run_map_on_block


def make_state(pattern=".*", combiner=False):
    job = LocalJob(job_id="j", mapper=PatternWordCount(pattern),
                   reducer=SumReducer(),
                   combiner=SumReducer() if combiner else None,
                   num_partitions=3)
    return JobRunState(job)


def test_map_counts_records():
    state = make_state()
    run_map_on_block([state], TextLineReader(), b"a b\nc\n")
    assert state.map_input_records == 2
    assert state.map_output_records == 3


def test_shared_block_feeds_all_jobs():
    s1, s2 = make_state("^a.*"), make_state("^b.*")
    run_map_on_block([s1, s2], TextLineReader(), b"aa bb\naa\n")
    assert s1.map_output_records == 2  # two "aa"
    assert s2.map_output_records == 1  # one "bb"
    assert s1.map_input_records == s2.map_input_records == 2


def test_combiner_shrinks_shuffle():
    plain, combined = make_state(), make_state(combiner=True)
    text = b"x x x y\nx y\n"
    run_map_on_block([plain], TextLineReader(), text)
    run_map_on_block([combined], TextLineReader(), text)
    assert count_pending_values(plain) == 6
    assert count_pending_values(combined) == 2  # one partial sum per key
    assert run_reduce(plain) == run_reduce(combined)


def test_reduce_sorted_within_partition():
    state = make_state()
    run_map_on_block([state], TextLineReader(), b"b a c a\n")
    output = run_reduce(state)
    assert dict(output) == {"a": 2, "b": 1, "c": 1}
    # Keys within each partition appear in sorted order.
    from repro.localrt.api import default_partitioner
    by_partition = {}
    for key, _ in output:
        by_partition.setdefault(default_partitioner(key, 3), []).append(key)
    for keys in by_partition.values():
        assert keys == sorted(keys)


def test_empty_participants_rejected():
    with pytest.raises(ExecutionError):
        run_map_on_block([], TextLineReader(), b"x\n")


def test_multiple_blocks_accumulate():
    state = make_state()
    run_map_on_block([state], TextLineReader(), b"x\n")
    run_map_on_block([state], TextLineReader(), b"x y\n")
    assert dict(run_reduce(state)) == {"x": 2, "y": 1}


# ------------------------------------------------------ batched protocol

class UpperBlock(BlockMapper):
    """Minimal batched kernel: per-record ``(LINE, 1)`` emission."""

    def map(self, key, value):
        yield (str(value).upper(), 1)

    def map_block(self, data, base_offset):
        block = data if isinstance(data, BlockData) else BlockData(data)
        outputs = [(line.decode("utf-8").upper(), 1)
                   for line in block.lines()]
        return block.line_count(), outputs, None


class MiscountingBlock(UpperBlock):
    """A broken kernel that disagrees with the reader's record count."""

    def map_block(self, data, base_offset):
        count, outputs, counters = super().map_block(data, base_offset)
        return count + 1, outputs, counters


def upper_state(mapper, combiner=False):
    job = LocalJob(job_id="u", mapper=mapper, reducer=SumReducer(),
                   combiner=SumReducer() if combiner else None)
    return JobRunState(job)


def test_batched_bytes_and_blockdata_inputs_identical():
    for block in (b"aa\nbb\naa\n", BlockData(b"aa\nbb\naa\n")):
        state = upper_state(UpperBlock())
        run_map_on_block([state], TextLineReader(), block)
        assert state.map_input_records == 3
        assert dict(run_reduce(state)) == {"AA": 2, "BB": 1}


def test_batched_and_per_record_jobs_share_one_wave():
    batched = upper_state(UpperBlock(), combiner=True)
    per_record = make_state()  # plain Mapper, never batched
    run_map_on_block([batched, per_record], TextLineReader(), b"x\ny\nx\n")
    assert batched.map_input_records == per_record.map_input_records == 3
    assert count_pending_values(batched) == 2   # combiner ran
    assert dict(run_reduce(batched)) == {"X": 2, "Y": 1}
    assert dict(run_reduce(per_record)) == {"x": 2, "y": 1}


def test_unsupported_reader_is_an_error():
    state = upper_state(UpperBlock())
    # The default BlockMapper kernel only vouches for TextLineReader.
    reader = DelimitedReader("|")
    with pytest.raises(ExecutionError,
                       match="'u'.*UpperBlock.*DelimitedReader"):
        collect_map_outputs([state.job], reader, b"a|b\n", 0)


def test_record_count_mismatch_raises():
    bad = upper_state(MiscountingBlock())
    witness = make_state()  # per-record job pins the true count
    with pytest.raises(ExecutionError, match="reported"):
        run_map_on_block([witness, bad], TextLineReader(), b"x\ny\n")


def test_combined_output_skips_engine_combine():
    class PreCombined(UpperBlock):
        combined_output = True

    # Two equal keys stay two records when combined_output vouches the
    # kernel's output is already combined (here it is not — this test
    # only observes the skip).
    state = upper_state(PreCombined(), combiner=True)
    run_map_on_block([state], TextLineReader(), b"x\nx\n")
    assert count_pending_values(state) == 2
    # Without the flag the engine's combiner collapses them.
    state = upper_state(UpperBlock(), combiner=True)
    run_map_on_block([state], TextLineReader(), b"x\nx\n")
    assert count_pending_values(state) == 1


def test_batched_counters_are_returned_not_accumulated():
    class CountingBlock(UpperBlock):
        def map_block(self, data, base_offset):
            count, outputs, _ = super().map_block(data, base_offset)
            counters = Counters()
            counters.increment("g", "blocks", 1)
            return count, outputs, counters

    state = upper_state(CountingBlock())
    run_map_on_block([state], TextLineReader(), b"x\n")
    run_map_on_block([state], TextLineReader(), b"y\n")
    assert state.counters.value("g", "blocks") == 2


def test_wave_builds_the_encoded_view_once(monkeypatch):
    """However many wordcount riders share a block, it is tokenized and
    dictionary-encoded once; every rider maps from that one view."""
    built = []
    original = DerivedViews.encode

    def spying(self, *args):
        encoded = original(self, *args)
        built.append(encoded)
        return encoded

    monkeypatch.setattr(DerivedViews, "encode", spying)
    patterns = ["^a.*", "^b.*", "^a.*", ".*"]
    states = [upper_state(PatternWordCountBlock(pattern), combiner=True)
              for pattern in patterns]
    run_map_on_block(states, TextLineReader(), b"aa bb\naa\n")
    assert len(built) == 1
    words = tuple(map(built[0].dictionary.words.__getitem__,
                      built[0].ids.tolist()))
    assert (words, built[0].counts.tolist()) == (("aa", "bb"), [2, 1])
    assert built[0].total == 3
    assert [s.map_output_records for s in states] == [1, 1, 1, 2]
    run_map_on_block(states, TextLineReader(), b"bb cc\n")
    assert len(built) == 2  # once per block, not per rider

