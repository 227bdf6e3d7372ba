"""Block store tests."""

import sys
import threading
import time

import pytest

from repro.common.errors import ExecutionError
from repro.localrt.cache import BlockCache
from repro.localrt.storage import BlockStore, ReadStats


def lines(n, width=20):
    return [f"line {i:04d} ".ljust(width, "x") for i in range(n)]


def test_create_and_reload(tmp_path):
    store = BlockStore.create(tmp_path / "s", lines(100), block_size_bytes=210)
    assert store.num_blocks > 1
    reloaded = BlockStore(tmp_path / "s")
    assert reloaded.num_blocks == store.num_blocks
    assert reloaded.total_bytes == store.total_bytes


def test_blocks_are_line_aligned(tmp_path):
    store = BlockStore.create(tmp_path / "s", lines(50), block_size_bytes=97)
    for index in range(store.num_blocks):
        assert store.read_block_bytes(index).decode().endswith("\n")


def test_content_round_trip(tmp_path):
    data = lines(37)
    store = BlockStore.create(tmp_path / "s", data, block_size_bytes=100)
    joined = "".join(store.read_block_bytes(i).decode() for i in range(store.num_blocks))
    assert joined.splitlines() == data


def test_read_stats_accumulate(tmp_path):
    store = BlockStore.create(tmp_path / "s", lines(20), block_size_bytes=100)
    store.read_block_bytes(0)
    store.read_block_bytes(0)
    assert store.stats.blocks_read == 2
    assert store.stats.bytes_read == 2 * store.block_size_bytes(0)


def test_block_offsets_monotonic(tmp_path):
    store = BlockStore.create(tmp_path / "s", lines(60), block_size_bytes=150)
    offsets = [store.block_offset(i) for i in range(store.num_blocks)]
    assert offsets[0] == 0
    assert offsets == sorted(offsets)
    assert (offsets[-1] + store.block_size_bytes(store.num_blocks - 1)
            == store.total_bytes)


def test_out_of_range_rejected(tmp_path):
    store = BlockStore.create(tmp_path / "s", lines(5), block_size_bytes=500)
    with pytest.raises(ExecutionError):
        store.read_block_bytes(99)


def test_create_on_existing_rejected(tmp_path):
    BlockStore.create(tmp_path / "s", lines(5), block_size_bytes=500)
    with pytest.raises(ExecutionError, match="already contains"):
        BlockStore.create(tmp_path / "s", lines(5), block_size_bytes=500)


def test_create_empty_rejected(tmp_path):
    with pytest.raises(ExecutionError):
        BlockStore.create(tmp_path / "s", [], block_size_bytes=100)


def test_newline_in_input_rejected(tmp_path):
    with pytest.raises(ExecutionError, match="newline"):
        BlockStore.create(tmp_path / "s", ["bad\nline"], block_size_bytes=100)


def test_open_missing_dir_rejected(tmp_path):
    with pytest.raises(ExecutionError):
        BlockStore(tmp_path / "missing")


def test_invalid_block_size(tmp_path):
    with pytest.raises(ExecutionError):
        BlockStore.create(tmp_path / "s", lines(5), block_size_bytes=0)


def test_non_ascii_lines_round_trip_as_utf8(tmp_path):
    data = ["héllo wörld", "naïve café", "日本語のテキスト", "plain ascii"]
    store = BlockStore.create(tmp_path / "s", data, block_size_bytes=40)
    joined = b"".join(store.read_block_bytes(i) for i in range(store.num_blocks))
    assert joined.decode().splitlines() == data
    # Counters measure on-disk bytes (UTF-8), not characters.
    encoded = sum(len((line + "\n").encode("utf-8")) for line in data)
    assert store.total_bytes == encoded
    before = store.stats_snapshot()
    for i in range(store.num_blocks):
        store.read_block_bytes(i)
    assert store.stats_snapshot().delta(before).bytes_read == encoded


def test_unencodable_line_raises_by_name(tmp_path):
    bad = "lone surrogate \ud800 here"
    with pytest.raises(ExecutionError, match="UTF-8"):
        BlockStore.create(tmp_path / "s", ["fine", bad], block_size_bytes=100)


def test_block_sizes_are_cached_at_open(tmp_path):
    """Satellite: block_size_bytes must not stat() per call — sizes are
    captured once at open, so they survive even file deletion."""
    store = BlockStore.create(tmp_path / "s", lines(40), block_size_bytes=120)
    sizes = [store.block_size_bytes(i) for i in range(store.num_blocks)]
    for path in sorted((tmp_path / "s").glob("block_*.dat")):
        path.unlink()
    assert [store.block_size_bytes(i)
            for i in range(store.num_blocks)] == sizes
    assert sum(sizes) == store.total_bytes


def test_full_pass_counter_accounting(tmp_path):
    store = BlockStore.create(tmp_path / "s", lines(50), block_size_bytes=150)
    consumed = [store.read_block_bytes(i) for i in range(store.num_blocks)]
    assert store.stats.blocks_read == store.num_blocks
    assert store.stats.bytes_read == store.total_bytes
    assert store.stats.physical_blocks_read == store.num_blocks
    assert store.stats.bytes_read == sum(len(data) for data in consumed)
    # A second pass doubles the logical counters (no cache attached).
    for i in range(store.num_blocks):
        store.read_block_bytes(i)
    assert store.stats.blocks_read == 2 * store.num_blocks
    assert store.stats.bytes_read == 2 * store.total_bytes


@pytest.mark.parametrize("with_cache", [False, True])
def test_read_block_concurrent_threads_accounting(tmp_path, with_cache):
    """The _stats_lock path: hammer read_block from many threads and
    check the logical counters add up exactly."""
    cache = BlockCache(10_000_000) if with_cache else None
    store = BlockStore.create(tmp_path / "s", lines(80), block_size_bytes=200,
                              cache=cache)
    reads_per_thread = 50
    n_threads = 8
    errors = []

    def hammer(seed):
        try:
            for i in range(reads_per_thread):
                index = (seed + i) % store.num_blocks
                text = store.read_block_bytes(index).decode()
                assert len(text.encode("utf-8")) == store.block_size_bytes(index)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(s,))
               for s in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    total = n_threads * reads_per_thread
    assert store.stats.blocks_read == total
    expected_bytes = sum(
        store.block_size_bytes((s + i) % store.num_blocks)
        for s in range(n_threads) for i in range(reads_per_thread))
    assert store.stats.bytes_read == expected_bytes
    if with_cache:
        assert store.stats.cache_hits + store.stats.cache_misses == total
        assert store.stats.physical_blocks_read < total
    else:
        assert store.stats.physical_blocks_read == total


def test_read_stats_snapshot_and_delta():
    stats = ReadStats(blocks_read=10, bytes_read=100, cache_hits=4)
    before = stats.snapshot()
    stats.blocks_read += 5
    stats.cache_hits += 2
    delta = stats.delta(before)
    assert delta.blocks_read == 5
    assert delta.cache_hits == 2
    assert delta.bytes_read == 0
    assert before.blocks_read == 10    # snapshot is independent


def test_cache_hit_ratio_zero_without_lookups():
    assert ReadStats().cache_hit_ratio == 0.0


# ------------------------------------------------- zero-copy bytes path

def test_read_block_bytes_matches_block_file(tmp_path):
    store = BlockStore.create(tmp_path / "s", lines(40), block_size_bytes=150)
    for index in range(store.num_blocks):
        raw = store.read_block_bytes(index)
        assert isinstance(raw, bytes)
        path = tmp_path / "s" / BlockStore.BLOCK_PATTERN.format(index)
        assert raw == path.read_bytes()
        assert len(raw) == store.block_size_bytes(index)


def test_read_block_bytes_counter_accounting(tmp_path):
    store = BlockStore.create(tmp_path / "s", lines(30), block_size_bytes=120)
    store.read_block_bytes(0)
    store.read_block_bytes(1)
    store.read_block_bytes(0)
    assert store.stats.blocks_read == 3
    assert store.stats.bytes_read == (2 * store.block_size_bytes(0)
                                      + store.block_size_bytes(1))


def test_mmap_path_used_and_counted(tmp_path):
    store = BlockStore.create(tmp_path / "s", lines(20), block_size_bytes=100)
    data = store.read_block_bytes(0)
    assert data  # sanity: mappable non-empty file
    assert store.stats.mmap_blocks_read == store.stats.physical_blocks_read


def test_mmap_fallback_returns_identical_bytes(tmp_path, monkeypatch):
    """Hosts without usable mmap silently take the plain-read path —
    same bytes, same logical/physical counters, mmap counter stays 0."""
    store = BlockStore.create(tmp_path / "s", lines(40), block_size_bytes=150)
    mapped = [store.read_block_bytes(i) for i in range(store.num_blocks)]
    mapped_stats = store.stats_snapshot()

    import repro.localrt.storage as storage_module

    def broken_mmap(*args, **kwargs):
        raise OSError("mmap unavailable on this host")

    monkeypatch.setattr(storage_module.mmap, "mmap", broken_mmap)
    fallback = [store.read_block_bytes(i) for i in range(store.num_blocks)]
    fallback_stats = store.stats_snapshot().delta(mapped_stats)
    assert fallback == mapped
    assert fallback_stats.mmap_blocks_read == 0
    assert mapped_stats.mmap_blocks_read == store.num_blocks
    assert fallback_stats.blocks_read == mapped_stats.blocks_read
    assert fallback_stats.bytes_read == mapped_stats.bytes_read
    assert (fallback_stats.physical_blocks_read
            == mapped_stats.physical_blocks_read)


def test_cache_stores_raw_bytes_with_exact_sizes(tmp_path):
    cache = BlockCache(10_000_000)
    store = BlockStore.create(tmp_path / "s", lines(30), block_size_bytes=120,
                              cache=cache)
    # The cache holds the block's undecoded bytes: a miss, then a hit.
    first = store.read_block_bytes(0)
    raw = store.read_block_bytes(0)
    assert raw == first
    assert store.stats.cache_hits == 1
    assert store.stats.cache_misses == 1
    # Byte accounting is the exact on-disk size, no object overhead.
    assert cache.current_bytes == store.block_size_bytes(0)
    # A cached block is returned as the resident object (zero-copy).
    assert store.read_block_bytes(0) is raw


def _gate_disk_reads(monkeypatch):
    """Hold every physical read until the returned ``release`` is set;
    ``started`` is set when the first one begins."""
    import repro.localrt.storage as storage_module

    started, release = threading.Event(), threading.Event()
    real = storage_module.read_block_file

    def gated(path):
        started.set()
        assert release.wait(timeout=10)
        return real(path)

    monkeypatch.setattr(storage_module, "read_block_file", gated)
    return started, release


def _run_while_one_fill_is_held(opener, others, started, release):
    """Start ``opener``, wait until its disk read is in flight, start
    ``others``, give them time to reach it, then let the read finish."""
    first = threading.Thread(target=opener)
    first.start()
    assert started.wait(timeout=10)
    rest = [threading.Thread(target=target) for target in others]
    for thread in rest:
        thread.start()
    time.sleep(0.05)  # a reader arriving later finds the block cached
    release.set()
    for thread in [first, *rest]:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in [first, *rest])


@pytest.mark.parametrize("first", ["prefetch", "demand"])
def test_a_prefetch_and_demand_readers_of_one_block_read_it_once(
        tmp_path, monkeypatch, first):
    """Whoever starts filling the cache with a block, everyone else
    reading it at the same time waits for that fill: one physical read
    between them, each demand read a hit but the filler's own, and the
    logical counters of one read per demand reader."""
    store = BlockStore.create(tmp_path / "s", lines(20), block_size_bytes=10_000,
                              cache=BlockCache(1 << 20))
    expected = (tmp_path / "s" / "block_00000.dat").read_bytes()
    started, release = _gate_disk_reads(monkeypatch)
    readers = 6
    got, prefetched = [], []

    def demand():
        got.append(store.read_block_bytes(0))

    def prefetch():
        prefetched.append(store.prefetch_block(0))

    if first == "prefetch":
        opener, others = prefetch, [demand] * readers
    else:
        opener, others = demand, [prefetch] + [demand] * (readers - 1)
    _run_while_one_fill_is_held(opener, others, started, release)

    assert got == [expected] * readers
    stats = store.stats_snapshot()
    assert stats.physical_blocks_read == 1
    assert (stats.blocks_read, stats.bytes_read) == (
        readers, readers * len(expected))
    assert stats.cache_hits + stats.cache_misses == readers
    assert stats.cache_misses == (first == "demand")
    assert prefetched == [first == "prefetch"]
    assert stats.prefetched_blocks == (first == "prefetch")


def test_a_reader_that_waited_for_nothing_cached_reads_for_itself(
        tmp_path, monkeypatch):
    """A block the cache will not hold (larger than its capacity): a
    demand reader that waited out another's fill finds nothing cached,
    so it goes to disk itself — a miss, like the first."""
    store = BlockStore.create(tmp_path / "s", lines(20), block_size_bytes=10_000,
                              cache=BlockCache(16))
    expected = (tmp_path / "s" / "block_00000.dat").read_bytes()
    started, release = _gate_disk_reads(monkeypatch)
    got = []

    def demand():
        got.append(store.read_block_bytes(0))

    _run_while_one_fill_is_held(demand, [demand], started, release)

    assert got == [expected] * 2
    stats = store.stats_snapshot()
    assert (stats.physical_blocks_read, stats.cache_misses,
            stats.cache_hits) == (2, 2, 0)


def test_racing_prefetches_and_demand_reads_read_each_block_once(tmp_path):
    """Eight threads (more than the cores), a switch interval that
    interleaves them inside a fill, each prefetching and reading every
    block of a store whose cache holds it all, in an order of its own:
    every block goes to disk exactly once, and the demand counters are
    one per read."""
    store = BlockStore.create(tmp_path / "s", lines(120), block_size_bytes=200,
                              cache=BlockCache(1 << 20))
    blocks = store.num_blocks
    threads_n, errors = 8, []
    start = threading.Barrier(threads_n)

    def work(seed):
        try:
            start.wait(timeout=10)
            for step in range(blocks):
                index = (seed * 5 + step) % blocks
                store.prefetch_block((index + 1) % blocks)
                store.read_block_bytes(index)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    stats = store.stats_snapshot()
    assert stats.physical_blocks_read == blocks
    assert stats.cache_misses + stats.prefetched_blocks == blocks
    assert stats.blocks_read == stats.cache_hits + stats.cache_misses \
        == threads_n * blocks
    assert stats.bytes_read == threads_n * store.total_bytes
