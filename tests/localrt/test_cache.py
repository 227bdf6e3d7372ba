"""BlockCache unit tests: LRU-by-bytes semantics, thread safety.

The cache counts nothing itself; its hits, misses and evictions are
booked in the store's ReadStats (the store tests below and the in-flight
fill tests in test_storage pin that book)."""

import threading

import pytest

from repro.common.errors import ExecutionError
from repro.localrt.cache import BlockCache
from repro.localrt.storage import BlockStore


def lines(n, width=20):
    return [f"line {i:04d} ".ljust(width, "x") for i in range(n)]


def test_capacity_must_be_positive():
    with pytest.raises(ExecutionError, match="positive"):
        BlockCache(0)
    with pytest.raises(ExecutionError, match="positive"):
        BlockCache(-5)


def test_get_miss_then_hit():
    cache = BlockCache(10)
    assert cache.get(0) is None
    cache.put(0, "aaaaa", 5)
    cache.put(1, "bbbbb", 5)
    assert cache.get(0) == "aaaaa"
    # The hit refreshed 0, so 1 is now the LRU entry -> evicted.
    assert cache.put(2, "ccccc", 5) == 1
    assert 0 in cache and 1 not in cache and 2 in cache


def test_contains_does_not_touch_stats_or_recency(tmp_path):
    cache = BlockCache(10)
    cache.put(0, "aaaaa", 5)
    cache.put(1, "bbbbb", 5)
    assert 0 in cache and 1 in cache and cache.contains(0)
    # 0 is still the LRU entry (contains didn't refresh it) -> evicted.
    cache.put(2, "ccccc", 5)
    assert 0 not in cache and 1 in cache and 2 in cache
    # A membership test on a store's cache books nothing in ReadStats.
    store = BlockStore.create(tmp_path / "s", lines(10), block_size_bytes=100,
                              cache=BlockCache(1_000_000))
    store.read_block_bytes(0)
    before = store.stats_snapshot()
    assert 0 in store.cache and 1 not in store.cache
    assert store.stats_snapshot() == before


def test_eviction_is_lru_by_bytes():
    cache = BlockCache(10)
    cache.put(0, "aaaa", 4)
    cache.put(1, "bbbb", 4)
    assert cache.get(0) == "aaaa"   # refresh 0; 1 becomes LRU
    evicted = cache.put(2, "cccccc", 6)  # needs 6 -> evicts LRU entry 1 only
    assert evicted == 1
    assert 0 in cache and 2 in cache
    assert 1 not in cache
    assert cache.current_bytes == 10


def test_eviction_count_and_current_bytes():
    cache = BlockCache(12)
    # 4 entries of 4 bytes into a 12-byte cache: only the 4th evicts.
    evicted = [cache.put(i, "x" * 4, 4) for i in range(4)]
    assert evicted == [0, 0, 0, 1]
    assert len(cache) == 3
    assert cache.current_bytes == 12
    assert 0 not in cache
    # Making room for 12 bytes evicts all three residents.
    assert cache.put(9, "y" * 12, 12) == 3
    assert len(cache) == 1 and cache.current_bytes == 12


def test_refresh_existing_entry_updates_bytes():
    cache = BlockCache(10)
    cache.put(0, "aaaa", 4)
    cache.put(0, "aaaaaaaa", 8)    # replace with a bigger payload
    assert cache.current_bytes == 8
    assert len(cache) == 1
    assert cache.get(0) == "aaaaaaaa"


def test_oversized_block_is_skipped_not_thrashed():
    cache = BlockCache(10)
    cache.put(0, "aaaa", 4)
    evicted = cache.put(1, "x" * 50, 50)
    assert evicted == 0
    assert 1 not in cache
    assert 0 in cache              # resident entries survive
    assert cache.current_bytes == 4 and len(cache) == 1


def test_negative_size_rejected():
    cache = BlockCache(10)
    with pytest.raises(ExecutionError):
        cache.put(0, "x", -1)


def test_concurrent_put_get_respects_budget():
    cache = BlockCache(64)
    errors = []

    def hammer(seed):
        try:
            for i in range(500):
                index = (seed * 31 + i) % 20
                if cache.get(index) is None:
                    cache.put(index, "v" * 8, 8)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(s,)) for s in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert cache.current_bytes <= 64
    assert len(cache) <= 8
    # The byte book matches the entries left resident.
    assert cache.current_bytes == 8 * len(cache)


def test_store_with_cache_reduces_physical_reads(tmp_path):
    store = BlockStore.create(tmp_path / "s", lines(60), block_size_bytes=100,
                              cache=BlockCache(1_000_000))
    for _ in range(3):
        for i in range(store.num_blocks):
            store.read_block_bytes(i)
    n = store.num_blocks
    assert store.stats.blocks_read == 3 * n            # logical: every visit
    assert store.stats.physical_blocks_read == n       # physical: first pass
    assert store.stats.cache_misses == n
    assert store.stats.cache_hits == 2 * n
    assert store.stats.cache_hit_ratio == pytest.approx(2 / 3)


def test_store_cache_eviction_accounted(tmp_path):
    store = BlockStore.create(tmp_path / "s", lines(60), block_size_bytes=100)
    # Capacity for roughly two blocks -> a full scan keeps evicting.
    store.attach_cache(BlockCache(2 * store.block_size_bytes(0)))
    for i in range(store.num_blocks):
        store.read_block_bytes(i)
    assert store.stats.cache_evictions > 0
    assert store.stats.physical_blocks_read == store.num_blocks


def test_detach_cache_restores_direct_reads(tmp_path):
    store = BlockStore.create(tmp_path / "s", lines(30), block_size_bytes=100,
                              cache=BlockCache(1_000_000))
    store.read_block_bytes(0)
    store.attach_cache(None)
    store.read_block_bytes(0)
    assert store.stats.physical_blocks_read == 2
    assert store.stats.cache_misses == 1
