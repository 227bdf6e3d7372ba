"""Property-based tests for the S3 scan loop.

Core invariant: however jobs arrive, every job's iterations cover each of
its file's blocks **exactly once**, and per-block batch sizes equal the
number of jobs needing that block.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import DfsConfig
from repro.dfs.namenode import NameNode
from repro.dfs.placement import RoundRobinPlacement
from repro.mapreduce.job import JobSpec
from repro.mapreduce.profile import normal_wordcount
from repro.schedulers.s3.scanloop import ScanLoop

# (num_blocks, seg, arrival build-index for each of up to 5 jobs)
scenarios = st.tuples(
    st.integers(2, 40),
    st.integers(1, 10),
    st.lists(st.integers(0, 12), min_size=1, max_size=5),
)


def drive(num_blocks, seg, arrival_builds):
    """Run a full scan loop; returns per-job covered block lists."""
    nn = NameNode(DfsConfig(block_size_mb=64.0),
                  RoundRobinPlacement(["n0", "n1"]))
    loop = ScanLoop(nn.create_file("f", 64.0 * num_blocks))
    profile = normal_wordcount()
    covered: dict[str, list[int]] = {}
    pending = sorted(enumerate(arrival_builds), key=lambda p: p[1])
    build_index = 0
    guard = 0
    while pending or loop.has_work():
        guard += 1
        assert guard < 10_000, "scan loop failed to converge"
        while pending and pending[0][1] <= build_index:
            index, _ = pending.pop(0)
            job_id = f"j{index}"
            loop.add_job(JobSpec(job_id=job_id, file_name="f",
                                 profile=profile), float(build_index))
            covered[job_id] = []
        iteration = loop.build_iteration(seg)
        if iteration is not None:
            for block, jobs in iteration.block_jobs.items():
                for job_id in jobs:
                    covered[job_id].append(block)
        build_index += 1
    return num_blocks, covered


@given(scenarios)
@settings(max_examples=80, deadline=None)
def test_every_job_covers_every_block_exactly_once(scenario):
    num_blocks, seg, arrivals = scenario
    n, covered = drive(num_blocks, seg, arrivals)
    for job_id, blocks in covered.items():
        assert sorted(blocks) == list(range(n)), job_id


@given(scenarios)
@settings(max_examples=80, deadline=None)
def test_coverage_is_circularly_contiguous(scenario):
    """Each job's block sequence is a rotation of 0..N-1."""
    num_blocks, seg, arrivals = scenario
    n, covered = drive(num_blocks, seg, arrivals)
    for job_id, blocks in covered.items():
        start = blocks[0]
        expected = [(start + i) % n for i in range(n)]
        assert blocks == expected, job_id
