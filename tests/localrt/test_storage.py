"""Block store tests."""

import threading

import pytest

from repro.common.errors import ExecutionError
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
    # A second pass doubles the logical and the physical counters.
    for i in range(store.num_blocks):
        store.read_block_bytes(i)
    assert store.stats.blocks_read == 2 * store.num_blocks
    assert store.stats.bytes_read == 2 * store.total_bytes
    assert store.stats.physical_blocks_read == 2 * store.num_blocks


@pytest.mark.parametrize("with_visits", [False, True])
def test_read_block_concurrent_threads_accounting(tmp_path, with_visits):
    """The _stats_lock path: hammer one handle from many threads — disk
    reads only, or every other read a view-served visit — and check the
    logical counters add up exactly and each visit landed in one tier."""
    store = BlockStore.create(tmp_path / "s", lines(80), block_size_bytes=200)
    reads_per_thread = 50
    n_threads = 8
    errors = []

    def hammer(seed):
        try:
            for i in range(reads_per_thread):
                index = (seed + i) % store.num_blocks
                if with_visits and i % 2:
                    store.visit_block(index)
                    continue
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
    visits = n_threads * (reads_per_thread // 2) if with_visits else 0
    stats = store.stats_snapshot()
    assert stats.blocks_read == total
    expected_bytes = sum(
        store.block_size_bytes((s + i) % store.num_blocks)
        for s in range(n_threads) for i in range(reads_per_thread))
    assert stats.bytes_read == expected_bytes
    assert stats.view_blocks_read == visits
    assert stats.physical_blocks_read == total - visits
    assert stats.blocks_read == (stats.physical_blocks_read
                                 + stats.view_blocks_read)


def test_read_stats_snapshot_and_delta():
    stats = ReadStats(blocks_read=10, bytes_read=100, view_blocks_read=4)
    before = stats.snapshot()
    stats.blocks_read += 5
    stats.view_blocks_read += 2
    delta = stats.delta(before)
    assert delta.blocks_read == 5
    assert delta.view_blocks_read == 2
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
