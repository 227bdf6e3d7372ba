"""Local runtime API tests."""

import pytest

from repro.common.errors import ExecutionError
from repro.localrt.api import (
    BlockData,
    IdentityReducer,
    JobResult,
    LocalJob,
    SumReducer,
    default_partitioner,
)
from repro.localrt.jobs import PatternWordCount
from repro.localrt.records import split_records


def test_local_job_validation():
    mapper, reducer = PatternWordCount(".*"), SumReducer()
    with pytest.raises(ExecutionError):
        LocalJob(job_id="", mapper=mapper, reducer=reducer)
    with pytest.raises(ExecutionError):
        LocalJob(job_id="j", mapper=mapper, reducer=reducer, num_partitions=0)


def test_sum_reducer():
    assert list(SumReducer().reduce("k", [1, 2, 3])) == [("k", 6)]


def test_identity_reducer():
    assert list(IdentityReducer().reduce("k", ["a", "b"])) == [
        ("k", "a"), ("k", "b")]


def test_partitioner_stable_for_strings():
    assert (default_partitioner("hello", 7)
            == default_partitioner("hello", 7))
    assert 0 <= default_partitioner("hello", 7) < 7


def test_partitioner_distributes():
    partitions = {default_partitioner(f"word{i}", 8) for i in range(100)}
    assert len(partitions) > 1


def test_partitioner_ints():
    assert default_partitioner(42, 5) == 42 % 5


def test_job_result_as_dict():
    result = JobResult(job_id="j", output=[("a", 1), ("b", 2)])
    assert result.as_dict() == {"a": 1, "b": 2}


def test_job_result_as_dict_duplicate_keys():
    result = JobResult(job_id="j", output=[("a", 1), ("a", 2)])
    with pytest.raises(ExecutionError, match="duplicate"):
        result.as_dict()


# -------------------------------------------------------------- BlockData

def test_blockdata_is_bytes_with_memoized_views():
    raw = b"the cat\nsat down\n"
    block = BlockData(raw)
    # A visit handle, not a bytes subclass: the bytes it wraps, uncopied.
    assert block.raw() is raw and len(block) == 17
    assert block.text() == "the cat\nsat down\n"
    assert block.text() is block.text()            # memoized
    assert block.lines() == [b"the cat", b"sat down"]
    assert block.lines() is block.lines()
    assert block.token_counts() is block.token_counts()
    assert dict(block.token_counts()) == {"the": 1, "cat": 1,
                                          "sat": 1, "down": 1}


def test_blockdata_line_count_matches_split_records():
    for raw in (b"", b"\n", b"a", b"a\n", b"a\nb", b"a\nb\n", b"\n\n",
                b"x\n\ny\n"):
        block = BlockData(raw)
        assert block.line_count() == len(split_records(raw.decode())), raw
        assert block.line_count() == len(block.lines())


def test_blockdata_token_counts_match_per_line_tokenization():
    # Newlines are whitespace, so one whole-block split must equal the
    # sum of per-line splits — the equivalence the batched wordcount
    # kernel relies on.
    from collections import Counter
    block = BlockData("the cat\n sat  down\nthe end\n".encode())
    per_line = Counter()
    for line in block.lines():
        per_line.update(line.decode("utf-8").split())
    assert block.token_counts() == per_line
    # First-occurrence key order also matches (insertion order).
    assert list(block.token_counts()) == ["the", "cat", "sat", "down", "end"]


def test_blockdata_memo_computes_once_per_key():
    block = BlockData(b"x\n")
    calls = []

    def compute():
        calls.append(1)
        return [1, 2, 3]

    first = block.memo(("k", 1), compute)
    second = block.memo(("k", 1), compute)
    assert first is second and calls == [1]
    other = block.memo(("k", 2), compute)
    assert other is not first and len(calls) == 2
