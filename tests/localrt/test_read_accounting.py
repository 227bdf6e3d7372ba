"""Every read is counted once, by the store that routed it.

Every ``map_backend`` name reads through the runner's store handle, so
``RunReport.io`` must come out the same under each, field for field —
and the same as the literals below, captured before the map wave had
one path, when pool workers read through private stores and the parent
mirrored their reads back: the one path reproduces the old totals, it
is not merely self-consistent.

The batched riders here all sum (wave-summed wordcount), so a warm visit
is answered by the handle's derived-view table with no bytes loaded:
one physical read per block per handle while its view is kept, and the
rest of the logical reads are ``view_blocks_read``.  The logical
counters, the replica fallbacks and the per-shard balance are the
literals of the byte-reading path.
"""

import dataclasses

import pytest

from repro.common.config import MAP_BACKENDS, ExecutionConfig
from repro.localrt.jobs import wordcount_job
from repro.localrt.runners import FifoLocalRunner, SharedScanRunner
from repro.localrt.sharded import ShardedBlockStore
from repro.localrt.storage import BlockStore, ReadStats
from repro.workloads.text import TextCorpusGenerator

PATTERNS = ["^th.*", ".*ing$", "^[aeiou].*"]
ARRIVALS = {"wc1": 1, "wc2": 2}

#: ``RunReport.io`` of the run below when it was captured, identical
#: on all three names then — except ``mmap_blocks_read``, which a pool
#: worker's read could not report, so it is checked on its own: every
#: read is a mapped read.
#: The cache and prefetch fields of the time, all 0 in it, are gone.
PARENT_IO = {
    "single": dict(
        blocks_read=16, bytes_read=64193, physical_blocks_read=16,
        physical_bytes_read=64193, replica_fallback_reads=0),
    "sharded": dict(
        blocks_read=16, bytes_read=64193, physical_blocks_read=16,
        physical_bytes_read=64193, replica_fallback_reads=3),
}
#: ``shard_blocks_read()`` of the sharded run at the parent commit.
PARENT_SHARD_BALANCE = (2, 8, 3, 3)


def _expected_io(kind, batched, num_blocks, total_bytes):
    """``PARENT_IO[kind]`` as the run reads it: per-record riders read
    every visit; summing riders read each block once (the scan covers
    the file) and the table answers every later visit."""
    expected = dict(PARENT_IO[kind], view_blocks_read=0)
    if batched:
        expected.update(
            physical_blocks_read=num_blocks, physical_bytes_read=total_bytes,
            view_blocks_read=expected["blocks_read"] - num_blocks)
    return expected


@pytest.fixture(scope="module")
def lines():
    return list(TextCorpusGenerator(vocabulary_size=300,
                                    seed=123).lines(40_000))


def _make_store(kind, directory, lines):
    if kind == "single":
        return BlockStore.create(directory, lines, 4_000)
    return ShardedBlockStore.create(directory, lines, 4_000,
                                    num_shards=4, replication=2)


@pytest.mark.parametrize("batched", [True, False])
@pytest.mark.parametrize("kind", ["single", "sharded"])
def test_io_identical_across_backends_and_to_parent(tmp_path, lines, kind,
                                                    batched):
    """serial / threads / processes × {single; 4-shard R=2 with shard 0
    lost after iteration 1}."""
    balances = {}
    for backend in MAP_BACKENDS:
        store = _make_store(kind, tmp_path / backend, lines)

        def lose_shard(iteration, run_states, store=store):
            if (kind == "sharded" and iteration == 1
                    and 0 not in store.down_shards()):
                store.fail_shard(0)

        config = ExecutionConfig(blocks_per_segment=3, map_backend=backend,
                                 map_workers=2)
        jobs = [wordcount_job(f"wc{i}", pattern, batched=batched)
                for i, pattern in enumerate(PATTERNS)]
        report = SharedScanRunner(store, config).run(
            jobs, ARRIVALS, on_iteration_end=lose_shard)
        io = dataclasses.asdict(report.io)
        mapped = io.pop("mmap_blocks_read")
        expected = _expected_io(kind, batched, store.num_blocks,
                                store.total_bytes)
        assert io == expected, backend
        assert (store.num_blocks, store.total_bytes) == (10, 40010)
        assert mapped == io["physical_blocks_read"], backend
        if kind == "sharded":
            balances[backend] = store.shard_blocks_read()
    if kind == "sharded":
        assert set(balances.values()) == {PARENT_SHARD_BALANCE}



def test_hit_ratio_is_the_share_of_visits_served_from_memory(tmp_path):
    """Two summing jobs over 16 blocks on a fresh handle: the first reads
    every block from disk, the second is answered by the derived-view
    table.  Half the visits were served from memory, so the ratio is
    0.5, on the run's report and on its ``ReadStats`` alike."""
    lines = list(TextCorpusGenerator(vocabulary_size=300,
                                     seed=123).lines(64_000))
    store = BlockStore.create(tmp_path / "s", lines, 4_000)
    assert store.num_blocks == 16
    report = FifoLocalRunner(store).run(
        [wordcount_job("wc0", PATTERNS[0]), wordcount_job("wc1", PATTERNS[1])])
    io = report.io
    assert (io.blocks_read, io.physical_blocks_read,
            io.view_blocks_read) == (32, 16, 16)
    assert io.cache_hit_ratio == 0.5
    assert report.cache_hit_ratio == 0.5
    assert ReadStats().cache_hit_ratio == 0.0
    assert io.prefetched_blocks == 0
