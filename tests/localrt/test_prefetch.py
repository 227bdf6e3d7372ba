"""Read-ahead prefetcher tests: warming, pacing, clean shutdown.

The acceptance-critical property lives here too: when a mapper raises
mid-wave, the runner's ``finally`` must close the prefetcher so no
background thread outlives the run (fault-injection tests below).
"""

import threading
import time

import pytest

from repro.common.config import ExecutionConfig
from repro.common.errors import ConfigError, ExecutionError
from repro.localrt.api import LocalJob, Mapper, SumReducer
from repro.localrt.cache import BlockCache
from repro.localrt.jobs import wordcount_job
from repro.localrt.prefetch import ReadAheadPrefetcher
from repro.localrt.runners import FifoLocalRunner, SharedScanRunner
from repro.localrt.storage import BlockStore


def lines(n, width=30):
    return [f"word{i % 7} line {i:04d} ".ljust(width, "x") for i in range(n)]


def make_store(tmp_path, *, capacity=10_000_000):
    return BlockStore.create(tmp_path / "s", lines(120), block_size_bytes=300,
                             cache=BlockCache(capacity))


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


def prefetch_threads():
    return [t for t in threading.enumerate() if t.name == "s3-prefetch"]


class ExplodingMapper(Mapper):
    """Raises once the poisoned block's text is seen."""

    def __init__(self, poison: str) -> None:
        self.poison = poison

    def map(self, key, value):
        if self.poison in value:
            raise RuntimeError("mapper exploded")
        yield ("n", 1)


def test_requires_cache(tmp_path):
    store = BlockStore.create(tmp_path / "s", lines(10), block_size_bytes=300)
    with pytest.raises(ExecutionError, match="BlockCache"):
        ReadAheadPrefetcher(store, depth=2)


def test_depth_validated(tmp_path):
    store = make_store(tmp_path)
    with pytest.raises(ExecutionError, match="depth"):
        ReadAheadPrefetcher(store, depth=0)


def test_warms_scheduled_blocks(tmp_path):
    store = make_store(tmp_path)
    with ReadAheadPrefetcher(store, depth=store.num_blocks) as prefetcher:
        prefetcher.schedule(range(4))
        assert wait_until(lambda: all(i in store.cache for i in range(4)))
    assert store.stats.prefetched_blocks == 4
    # Prefetching is not a logical read and not a demand miss.
    assert store.stats.blocks_read == 0
    assert store.stats.cache_misses == 0
    store.read_block_bytes(0)
    assert store.stats.cache_hits == 1


def test_pacing_never_runs_more_than_depth_ahead(tmp_path):
    store = make_store(tmp_path)
    with ReadAheadPrefetcher(store, depth=3) as prefetcher:
        prefetcher.schedule(range(store.num_blocks))
        wait_until(lambda: store.stats.prefetched_blocks >= 3)
        time.sleep(0.05)  # give the worker a chance to (wrongly) run ahead
        assert store.stats.prefetched_blocks <= 3
        # As demand reads progress, the window opens.
        for i in range(6):
            store.read_block_bytes(i)
        assert wait_until(lambda: store.stats.prefetched_blocks >= 6)


def test_schedule_dedups_pending(tmp_path):
    store = make_store(tmp_path)
    prefetcher = ReadAheadPrefetcher(store, depth=1)
    try:
        queued = prefetcher.schedule([5, 5, 6, 5])
        assert queued == 2
    finally:
        prefetcher.close()


def test_close_is_idempotent_and_joins_thread(tmp_path):
    store = make_store(tmp_path)
    prefetcher = ReadAheadPrefetcher(store, depth=2)
    assert len(prefetch_threads()) == 1
    prefetcher.close()
    prefetcher.close()
    assert prefetcher.closed
    assert not prefetch_threads()
    with pytest.raises(ExecutionError, match="closed"):
        prefetcher.schedule([0])


def test_prefetch_error_recorded_not_raised(tmp_path):
    store = make_store(tmp_path)
    prefetcher = ReadAheadPrefetcher(store, depth=4)
    try:
        with pytest.raises(ExecutionError):
            # Out-of-range indices surface on the demand path, never from
            # the background thread...
            store.read_block_bytes(10_000)
        prefetcher.schedule([10_000])
        assert wait_until(lambda: prefetcher.error is not None)
        assert isinstance(prefetcher.error, ExecutionError)
    finally:
        prefetcher.close()
    assert not prefetch_threads()


def test_runner_rejects_prefetch_without_cache(tmp_path):
    store = BlockStore.create(tmp_path / "s", lines(10), block_size_bytes=300)
    # The depth reaches a runner only through its config, which refuses
    # prefetching without a cache (and the cache is attached from it).
    with pytest.raises(ConfigError, match="cache_capacity_bytes"):
        ExecutionConfig(prefetch_depth=2)
    config = ExecutionConfig(cache_capacity_bytes=1 << 20, prefetch_depth=2)
    for runner_cls in (FifoLocalRunner, SharedScanRunner):
        assert runner_cls(store, config).prefetch_depth == 2
        assert store.has_cache


@pytest.mark.parametrize("runner_cls", [FifoLocalRunner, SharedScanRunner])
def test_mapper_fault_mid_wave_shuts_prefetcher_down(tmp_path, runner_cls):
    """Fault injection: a mapper raising mid-wave must not leak the
    prefetch thread (runner ``finally`` closes it)."""
    store = make_store(tmp_path)
    poisoned = store.read_block_bytes(store.num_blocks // 2).split()[0].decode()
    job = LocalJob(job_id="boom", mapper=ExplodingMapper(poisoned),
                   reducer=SumReducer())
    config = ExecutionConfig(cache_capacity_bytes=10_000_000,
                             prefetch_depth=3)
    runner = runner_cls(store, config)
    with pytest.raises(RuntimeError, match="mapper exploded"):
        runner.run([job])
    assert not prefetch_threads(), "prefetch thread leaked after fault"
    # The runner stays usable after the fault.
    report = runner_cls(store, config).run([wordcount_job("ok", ".*")])
    assert report.results["ok"].output
    assert not prefetch_threads()


class SlowCountMapper(Mapper):
    """Counts records, sleeping per call so the map wave dominates I/O.

    The sleep releases the GIL, guaranteeing the prefetch thread gets
    scheduled even on a single-core host — without it this test races
    the warmer against the demand reads.
    """

    def map(self, key, value):
        time.sleep(0.002)
        yield ("n", 1)


def test_shared_scan_prefetches_next_segment(tmp_path):
    store = make_store(tmp_path)
    jobs = [LocalJob(job_id=j, mapper=SlowCountMapper(), reducer=SumReducer())
            for j in ("a", "b")]
    report = SharedScanRunner(
        store,
        ExecutionConfig(blocks_per_segment=4,
                        cache_capacity_bytes=10_000_000,
                        prefetch_depth=4)).run(jobs)
    assert report.io.prefetched_blocks > 0
    assert report.blocks_read == store.num_blocks
    # Every block the prefetcher loaded was a block the scan then hit.
    assert report.io.cache_hits > 0


def _fifo_plain_and_cached(tmp_path, **job_options):
    """Three FIFO wordcount jobs on a plain store, and on a cached one
    with read-ahead: ``(plain, plain report, cached report)``, after
    checking that the cache and the prefetcher changed no output and no
    logical counter."""
    plain = BlockStore.create(tmp_path / "plain", lines(120),
                              block_size_bytes=300)
    cached = BlockStore.create(tmp_path / "cached", lines(120),
                               block_size_bytes=300,
                               cache=BlockCache(10_000_000))

    def jobs():
        return [wordcount_job(f"wc{i}", ".*", **job_options)
                for i in range(3)]

    base = FifoLocalRunner(plain).run(jobs())
    accel = FifoLocalRunner(
        cached,
        ExecutionConfig(cache_capacity_bytes=10_000_000,
                        prefetch_depth=4)).run(jobs())
    assert accel.blocks_read == base.blocks_read
    assert accel.bytes_read == base.bytes_read
    for job_id in base.results:
        assert accel.results[job_id].output == base.results[job_id].output
    return plain, base, accel


def test_fifo_prefetch_keeps_logical_counters(tmp_path):
    """Summing riders: the derived-view table answers every visit after
    a block's first, cached or not, so the cache has nothing left to
    save — and the cached run reads no more than it did when every
    visit loaded the block (one disk read per block)."""
    plain, base, accel = _fifo_plain_and_cached(tmp_path)
    n = plain.num_blocks
    assert base.io.physical_blocks_read == n
    assert accel.io.physical_blocks_read <= n
    assert accel.io.view_blocks_read == base.io.view_blocks_read == 2 * n


def test_fifo_prefetch_cuts_the_reads_of_riders_that_need_bytes(tmp_path):
    """Riders mapped block by block load every block they visit, so the
    cache serves the repeat visits the plain store reads again."""
    _, base, accel = _fifo_plain_and_cached(tmp_path, use_combiner=False)
    assert base.io.view_blocks_read == accel.io.view_blocks_read == 0
    assert accel.io.physical_blocks_read < base.io.physical_blocks_read
