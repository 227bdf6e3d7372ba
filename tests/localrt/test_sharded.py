"""Sharded block store: layout, routing, failover, and counter model."""

import json

import pytest

from repro.common.config import ExecutionConfig
from repro.common.errors import ExecutionError
from repro.localrt.api import BlockStoreProtocol
from repro.localrt.engine import JobRunState
from repro.localrt.jobs import wordcount_job
from repro.localrt.parallel import MapTaskSpec, execute_map_wave
from repro.localrt.records import TextLineReader
from repro.localrt.runners import FifoLocalRunner, SharedScanRunner
from repro.localrt.sharded import MANIFEST_NAME, ShardedBlockStore, shard_id
from repro.localrt.storage import BlockStore
from repro.obs.tracer import Tracer
from repro.workloads.text import TextCorpusGenerator

NUM_SHARDS = 4
REPLICATION = 2


def corpus_lines(n_bytes: int = 40_000) -> list:
    return list(TextCorpusGenerator(vocabulary_size=300,
                                    seed=123).lines(n_bytes))


@pytest.fixture
def lines():
    return corpus_lines()


@pytest.fixture
def sharded(tmp_path, lines) -> ShardedBlockStore:
    return ShardedBlockStore.create(tmp_path / "shards", lines, 4_000,
                                    num_shards=NUM_SHARDS,
                                    replication=REPLICATION)


@pytest.fixture
def single(tmp_path, lines) -> BlockStore:
    return BlockStore.create(tmp_path / "corpus", lines,
                             block_size_bytes=4_000)


# ------------------------------------------------------------------ layout

def test_create_writes_every_block_r_times(sharded):
    for block in range(sharded.num_blocks):
        filename = BlockStore.BLOCK_PATTERN.format(block)
        holders = [shard for shard in range(NUM_SHARDS)
                   if (sharded.directory / shard_id(shard)
                       / filename).is_file()]
        assert len(holders) == REPLICATION
        assert block % NUM_SHARDS in holders  # primary holds its block


def test_satisfies_block_store_protocol(sharded, single):
    assert isinstance(sharded, BlockStoreProtocol)
    assert isinstance(single, BlockStoreProtocol)


def test_geometry_matches_single_store(sharded, single):
    assert sharded.num_blocks == single.num_blocks
    assert sharded.total_bytes == single.total_bytes
    for index in range(single.num_blocks):
        assert sharded.block_size_bytes(index) \
            == single.block_size_bytes(index)
        assert sharded.block_offset(index) == single.block_offset(index)
        assert sharded.read_block_bytes(index).decode() == single.read_block_bytes(index).decode()
        assert sharded.read_block_bytes(index) \
            == single.read_block_bytes(index)


def test_create_validation(tmp_path, lines):
    with pytest.raises(ExecutionError, match="replication"):
        ShardedBlockStore.create(tmp_path / "a", lines, 4_000,
                                 num_shards=2, replication=3)
    with pytest.raises(ExecutionError, match="num_shards"):
        ShardedBlockStore.create(tmp_path / "b", lines, 4_000,
                                 num_shards=0)
    with pytest.raises(ExecutionError, match="no lines"):
        ShardedBlockStore.create(tmp_path / "c", [], 4_000)
    ShardedBlockStore.create(tmp_path / "d", lines, 4_000)
    with pytest.raises(ExecutionError, match="already contains"):
        ShardedBlockStore.create(tmp_path / "d", lines, 4_000)


def test_corrupt_manifest_rejected(sharded):
    path = sharded.directory / MANIFEST_NAME
    path.write_text(json.dumps({"num_shards": NUM_SHARDS}))
    with pytest.raises(ExecutionError, match="corrupt shard manifest"):
        ShardedBlockStore(sharded.directory)
    path.write_text(json.dumps(
        {"num_shards": 2, "replication": 3, "num_blocks": 4}))
    with pytest.raises(ExecutionError, match="replication"):
        ShardedBlockStore(sharded.directory)


def test_not_a_sharded_store(single):
    with pytest.raises(ExecutionError, match="manifest"):
        ShardedBlockStore(single.directory)


def test_more_shards_than_blocks(tmp_path):
    store = ShardedBlockStore.create(tmp_path / "wide", ["one line"],
                                    64, num_shards=3, replication=1)
    assert store.num_blocks == 1
    assert store.read_block_bytes(0).decode() == "one line\n"
    assert store.shard_blocks_read() == (1, 0, 0)


# ----------------------------------------------------------------- routing

def test_locations_primary_first(sharded):
    for index in range(sharded.num_blocks):
        locations = sharded.block_locations(index)
        assert len(locations) == REPLICATION
        assert locations[0] == shard_id(index % NUM_SHARDS)


def test_locations_rotate_when_primary_down(sharded):
    primary = 0 % NUM_SHARDS
    before = sharded.block_locations(0)
    sharded.fail_shard(primary)
    after = sharded.block_locations(0)
    assert set(after) == set(before)
    assert after[0] != shard_id(primary)
    assert after[-1] == shard_id(primary)


def test_failover_read_is_byte_identical(sharded, single):
    sharded.fail_shard(0)
    for index in range(sharded.num_blocks):
        assert sharded.read_block_bytes(index) \
            == single.read_block_bytes(index)
    stats = sharded.stats_snapshot()
    # Blocks with primary on shard 0 were served by a replica.
    primaries_on_0 = sum(1 for index in range(sharded.num_blocks)
                         if index % NUM_SHARDS == 0)
    assert stats.replica_fallback_reads == primaries_on_0
    assert stats.blocks_read == sharded.num_blocks
    assert sharded.shard_blocks_read()[0] == 0


def test_restore_shard_reinstates_primary(sharded):
    sharded.fail_shard(1)
    assert sharded.down_shards() == (1,)
    sharded.restore_shard(1)
    assert sharded.down_shards() == ()
    sharded.read_block_bytes(1)
    assert sharded.stats_snapshot().replica_fallback_reads == 0
    assert sharded.shard_blocks_read()[1] == 1


def test_all_replicas_down_raises(sharded):
    sharded.fail_shard(0)
    sharded.fail_shard(1)
    with pytest.raises(ExecutionError, match="all 2 replicas"):
        sharded.read_block_bytes(0)  # replicas of block 0 live on shards 0 and 1


# ------------------------------------------------------- view-served visits

def _wave(store, job, blocks):
    """One map wave of ``job`` alone over ``blocks``."""
    execute_map_wave(store, TextLineReader(),
                     [MapTaskSpec(block, (JobRunState(job),))
                      for block in blocks])


def _warm_handle(sharded):
    """A second handle on ``sharded``'s directory whose table keeps
    every block's encoding (one wave of a summing rider)."""
    warm = ShardedBlockStore(sharded.directory)
    _wave(warm, wordcount_job("warm-up", ".*"), range(warm.num_blocks))
    return warm


def test_warm_visit_reads_no_replica_and_books_its_primary(sharded):
    """With shard 0 down, a lap of summing riders on a warm handle loads
    no bytes and reads no replica: each visit is one logical read,
    booked to the block's primary shard whatever its state, with no
    fallback and no ``shard.*`` event.  A lap that reads the bytes on a
    cold handle routes them to live replicas."""
    warm = _warm_handle(sharded)
    blocks = range(sharded.num_blocks)
    seen = {}
    for store, job in ((sharded, wordcount_job("reads", ".*",
                                               use_combiner=False)),
                       (warm, wordcount_job("summed", ".*"))):
        store.fail_shard(0)
        tracer = Tracer(f"{job.job_id}-trace")
        store.attach_tracer(tracer)
        stats, balance = store.stats_snapshot(), store.shard_blocks_read()
        _wave(store, job, blocks)
        delta = store.stats_snapshot().delta(stats)
        seen[job.job_id] = (
            delta,
            tuple(now - then for now, then
                  in zip(store.shard_blocks_read(), balance)),
            [(event.name, event.args) for event in tracer.events()
             if event.name.startswith("shard.")])
    (reads, read_balance, read_events), (summed, summed_balance,
                                         summed_events) = seen.values()
    for field in ("blocks_read", "bytes_read"):
        assert getattr(summed, field) == getattr(reads, field), field
    on_shard_0 = len(blocks[::NUM_SHARDS])
    assert reads.replica_fallback_reads == on_shard_0 > 0
    assert summed.replica_fallback_reads == 0
    assert read_balance[0] == 0 and read_events != []
    assert summed_balance == tuple(len(blocks[shard::NUM_SHARDS])
                                   for shard in range(NUM_SHARDS))
    assert summed_events == []
    assert (reads.physical_blocks_read, reads.view_blocks_read) \
        == (len(blocks), 0)
    assert (summed.physical_blocks_read, summed.view_blocks_read) \
        == (0, len(blocks))


def test_warm_visit_with_every_replica_down_is_served_from_the_table(
        sharded):
    """Block 0's replicas are all down: a disk read of it raises, but a
    visit whose views the table kept is still served, and booked."""
    warm = _warm_handle(sharded)
    for store in (sharded, warm):
        store.fail_shard(0)
        store.fail_shard(1)    # block 0 lives on shards 0 and 1 only
    with pytest.raises(ExecutionError, match="all 2 replicas of block 0"):
        sharded.read_block_bytes(0)
    before, balance = warm.stats_snapshot(), warm.shard_blocks_read()
    warm.visit_block(0)
    _wave(warm, wordcount_job("summed", ".*"), [0])
    delta = warm.stats_snapshot().delta(before)
    assert (delta.blocks_read, delta.view_blocks_read,
            delta.physical_blocks_read, delta.replica_fallback_reads) \
        == (2, 2, 0, 0)
    assert warm.shard_blocks_read()[0] == balance[0] + 2
    with pytest.raises(ExecutionError, match="all 2 replicas of block 0"):
        _wave(warm, wordcount_job("mapped", ".*", use_combiner=False,
                                  batched=False), [0])


def test_visit_out_of_range_raises_and_books_nothing(sharded, single):
    for store in (sharded, single):
        before = store.stats_snapshot()
        for index in (-1, store.num_blocks):
            with pytest.raises(ExecutionError, match="out of range"):
                store.visit_block(index)
        assert store.stats_snapshot() == before


def test_shard_state_is_per_handle_and_in_memory(sharded):
    before = sorted(p.relative_to(sharded.directory)
                    for p in sharded.directory.rglob("*"))
    sharded.fail_shard(2)
    # Nothing but block files and the manifest, before and after.
    after = sorted(p.relative_to(sharded.directory)
                   for p in sharded.directory.rglob("*"))
    assert after == before
    assert all(p.name == MANIFEST_NAME or p.name.startswith("shard_")
               or p.match("block_*.dat") for p in after)
    other = ShardedBlockStore(sharded.directory)
    assert other.down_shards() == ()
    assert sharded.down_shards() == (2,)
    sharded.restore_shard(2)
    assert sharded.down_shards() == ()


# ---------------------------------------------------------------- counters

def test_stats_aggregate(sharded):
    for index in range(sharded.num_blocks):
        sharded.read_block_bytes(index)
    stats = sharded.stats_snapshot()
    assert stats.blocks_read == sharded.num_blocks
    assert stats.bytes_read == sharded.total_bytes
    assert sum(sharded.shard_blocks_read()) == sharded.num_blocks
    assert sharded.logical_blocks_read() == sharded.num_blocks


# ------------------------------------------------- runner fault injection

PATTERNS = ["^th.*", ".*ing$", "^[aeiou].*"]


def make_jobs():
    return [wordcount_job(f"wc{i}", p) for i, p in enumerate(PATTERNS)]


@pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
def test_mid_scan_shard_loss_is_invisible(tmp_path, lines, backend):
    """Outputs and logical I/O must not change when a shard dies
    mid-scan, whichever ``map_backend`` name the config carries."""
    config = ExecutionConfig(blocks_per_segment=3, map_backend=backend,
                            map_workers=2)
    arrivals = {"wc1": 1, "wc2": 2}
    baseline_store = ShardedBlockStore.create(
        tmp_path / "base", lines, 4_000,
        num_shards=NUM_SHARDS, replication=REPLICATION)
    baseline = SharedScanRunner(baseline_store, config).run(
        make_jobs(), arrivals)

    drill_store = ShardedBlockStore.create(
        tmp_path / "drill", lines, 4_000,
        num_shards=NUM_SHARDS, replication=REPLICATION)

    def lose_shard(iteration, run_states):
        if iteration == 1 and 0 not in drill_store.down_shards():
            drill_store.fail_shard(0)

    drilled = SharedScanRunner(drill_store, config).run(
        make_jobs(), arrivals, on_iteration_end=lose_shard)

    for job_id in ("wc0", "wc1", "wc2"):
        assert (drilled.results[job_id].output
                == baseline.results[job_id].output)
    assert drilled.blocks_read == baseline.blocks_read
    assert drilled.bytes_read == baseline.bytes_read
    assert drill_store.stats_snapshot().replica_fallback_reads > 0
    assert drill_store.shard_blocks_read()[0] \
        < baseline_store.shard_blocks_read()[0]


def test_fifo_runner_on_sharded_store(tmp_path, lines):
    sharded = ShardedBlockStore.create(
        tmp_path / "shards", lines, 4_000,
        num_shards=NUM_SHARDS, replication=REPLICATION)
    single = BlockStore.create(tmp_path / "corpus", lines,
                               block_size_bytes=4_000)
    config = ExecutionConfig()
    a = FifoLocalRunner(sharded, config).run(make_jobs())
    b = FifoLocalRunner(single, config).run(make_jobs())
    for job_id in ("wc0", "wc1", "wc2"):
        assert a.results[job_id].output == b.results[job_id].output
    assert a.blocks_read == b.blocks_read
