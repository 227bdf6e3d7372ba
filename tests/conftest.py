"""Shared fixtures for the test suite.

Most tests run against a deliberately *small* cluster/file geometry (8
nodes, 24-block file) so every scheduler executes multiple waves and
segments in milliseconds; integration tests that need the paper's full
geometry build it explicitly.
"""

from __future__ import annotations

import os

import pytest

# Lock-order checking (repro.analysis.lockgraph) is on for the whole
# suite: any test that nests the runtime locks inconsistently fails with
# a LockOrderError naming the cycle.  A runtime lock is checked only if
# checking was on when it was built (``ordered_lock``), and importing
# ``repro`` builds some (the table unbound blocks encode against), so the
# switch is set before the first ``repro`` import.
os.environ.setdefault("REPRO_LOCKCHECK", "1")

# Resolve the lockset race detector's switch up front too: when the run
# was launched with REPRO_RACECHECK=1 (the CI racecheck job), this turns
# on held-set tracking before any lock is built or acquired, so early
# acquisitions are not invisible to later registrations.
from repro.analysis.racecheck import racecheck_enabled  # noqa: E402

racecheck_enabled()

from repro.common.config import ClusterConfig, DfsConfig  # noqa: E402
from repro.localrt.storage import BlockStore  # noqa: E402
from repro.mapreduce.costmodel import CostModel  # noqa: E402
from repro.mapreduce.job import JobSpec  # noqa: E402
from repro.mapreduce.profile import JobProfile  # noqa: E402
from repro.workloads.text import TextCorpusGenerator  # noqa: E402


@pytest.fixture
def small_cluster_config() -> ClusterConfig:
    """8 nodes, 2 racks, 1 map + 1 reduce slot each."""
    return ClusterConfig(num_nodes=8, rack_sizes=(4, 4))


@pytest.fixture
def small_dfs_config() -> DfsConfig:
    return DfsConfig(block_size_mb=64.0, replication=1)


@pytest.fixture
def fast_profile() -> JobProfile:
    """A tiny profile: 1 s scan + 0.5 s cpu per 64 MB block, 2 s reduce."""
    return JobProfile(
        name="test-fast",
        scan_rate_mb_s=64.0,
        map_cpu_s_per_mb=0.5 / 64.0,
        task_startup_s=0.1,
        map_share_beta=0.1,
        reduce_total_s=2.0,
        reduce_share_gamma=0.05,
        num_reduce_tasks=4,
    )


@pytest.fixture
def zero_cost_model() -> CostModel:
    """No submission or sub-job overheads (idealised Section III arithmetic)."""
    return CostModel(job_submit_overhead_s=0.0, subjob_overhead_s=0.0)


def make_jobs(profile: JobProfile, count: int, file_name: str = "f",
              prefix: str = "j") -> list[JobSpec]:
    return [JobSpec(job_id=f"{prefix}{i}", file_name=file_name, profile=profile)
            for i in range(count)]


@pytest.fixture
def job_factory():
    return make_jobs


@pytest.fixture(scope="session")
def corpus_store(tmp_path_factory: pytest.TempPathFactory) -> BlockStore:
    """A 10-block synthetic text corpus shared by local-runtime tests.

    Session-scoped for speed; tests must not mutate the underlying files.
    (Read counters are per-test-deltas, so sharing the store is safe.)
    """
    directory = tmp_path_factory.mktemp("corpus")
    generator = TextCorpusGenerator(vocabulary_size=300, seed=123)
    return BlockStore.create(directory, generator.lines(80_000),
                             block_size_bytes=8_000)
