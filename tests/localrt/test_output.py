"""Part-file output materialisation tests."""

import pytest

from repro.common.errors import ExecutionError
from repro.localrt.api import JobResult
from repro.localrt.output import SUCCESS_MARKER, write_output


def read_parts(directory):
    """Every ``key<TAB>value`` line of a part-file directory."""
    return [tuple(line.split("\t", 1))
            for path in sorted(directory.glob("part-*"))
            for line in path.read_text(encoding="utf-8").splitlines()]


def make_result():
    return JobResult(job_id="j", output=[("apple", 3), ("pear", 1),
                                         ("plum", 2)])


def test_write_creates_parts_and_marker(tmp_path):
    paths = write_output(make_result(), tmp_path / "out", num_partitions=3)
    assert len(paths) == 3
    assert all(p.exists() for p in paths)
    assert (tmp_path / "out" / SUCCESS_MARKER).exists()


def test_round_trip(tmp_path):
    write_output(make_result(), tmp_path / "out", num_partitions=3)
    records = dict(read_parts(tmp_path / "out"))
    assert records == {"apple": "3", "pear": "1", "plum": "2"}


def test_partitioning_is_stable(tmp_path):
    from repro.localrt.api import default_partitioner
    write_output(make_result(), tmp_path / "out", num_partitions=4)
    for partition in range(4):
        path = tmp_path / "out" / f"part-{partition:05d}"
        for line in path.read_text().splitlines():
            key = line.split("\t")[0]
            assert default_partitioner(key, 4) == partition


def test_empty_partitions_still_written(tmp_path):
    result = JobResult(job_id="j", output=[("a", 1)])
    paths = write_output(result, tmp_path / "out", num_partitions=8)
    assert len(paths) == 8


def test_double_write_rejected(tmp_path):
    write_output(make_result(), tmp_path / "out")
    with pytest.raises(ExecutionError, match="already holds"):
        write_output(make_result(), tmp_path / "out")


def test_invalid_partitions(tmp_path):
    with pytest.raises(ExecutionError):
        write_output(make_result(), tmp_path / "out", num_partitions=0)


def test_real_job_output_round_trip(tmp_path, corpus_store):
    from repro.localrt.jobs import wordcount_job
    from repro.localrt.runners import FifoLocalRunner

    report = FifoLocalRunner(corpus_store).run([wordcount_job("wc", "^b.*")])
    write_output(report.results["wc"], tmp_path / "wc-out")
    restored = {k: int(v) for k, v in read_parts(tmp_path / "wc-out")}
    assert restored == dict(report.results["wc"].output)
