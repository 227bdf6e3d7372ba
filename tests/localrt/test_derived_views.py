"""The per-handle table of derived views: a block is tokenised once per
store handle, not once per lap — and nothing observable changes."""

import dataclasses
import functools
import gc
import hashlib
import sys
import threading
import weakref
from collections import Counter

import numpy as np
import pytest

import repro.localrt.tokens as tokens
from repro.analysis.lockgraph import lock_order_graph
from repro.common.config import MAP_BACKENDS, ExecutionConfig, TraceConfig
from repro.common.errors import ExecutionError
from repro.localrt.api import BlockData, Reducer
from repro.localrt.jobs import (
    AggregationBlockMapper,
    PatternWordCountBlock,
    SelectionBlockMapper,
    SelectionMapper,
    aggregation_job,
    selection_job,
    wordcount_job,
)
from repro.localrt.output import write_output
from repro.localrt.records import DelimitedReader, split_records
from repro.localrt.runners import FifoLocalRunner, SharedScanRunner
from repro.localrt.sharded import ShardedBlockStore
from repro.localrt.storage import BlockStore
from repro.localrt.tokens import (
    ENCODED_VIEW,
    MISSING,
    DerivedViews,
    RowTable,
)
from repro.workloads.text import TextCorpusGenerator
from repro.workloads.tpch import (
    LINEITEM_COLUMNS,
    LineitemGenerator,
    quantity_threshold_for_selectivity,
)

ZERO = {"hits": 0, "misses": 0, "admitted": 0, "refused_at_cap": 0,
        "invalidated": 0, "resident_blocks": 0, "charged_bytes": 0}


# ------------------------------------------------------------------ the table

def _run_interleaved(*targets):
    """Run ``targets`` on a thread each under a switch interval short
    enough to interleave them inside a critical section; all must end."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target) for target in targets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_lookup_publish_and_the_books():
    views = DerivedViews()
    assert views.stats() == ZERO
    assert views.lookup(0, "v") is MISSING
    assert views.publish(0, "v", "value", 100)
    assert views.publish(0, "w", None, 100)  # None is a value ...
    assert views.lookup(0, "v") == "value"
    assert views.lookup(0, "w") is None  # ... and a hit
    assert views.lookup(1, "v") is MISSING
    assert views.stats() == {
        "hits": 2, "misses": 2, "admitted": 2, "refused_at_cap": 0,
        "invalidated": 0, "resident_blocks": 1, "charged_bytes": 200}


def test_first_publisher_wins():
    views = DerivedViews()
    first, second = object(), object()
    assert views.publish(0, "v", first, 10)
    assert views.publish(0, "v", second, 10)  # a racing task's duplicate
    assert views.lookup(0, "v") is first
    assert views.stats()["charged_bytes"] == 10
    assert views.stats()["admitted"] == 1


def test_full_table_stops_admitting_and_never_evicts(monkeypatch):
    monkeypatch.setattr(tokens, "DERIVED_VIEWS_CAP_BYTES", 250)
    views = DerivedViews()
    assert views.publish(0, "v", "a", 100)
    assert views.publish(1, "v", "b", 100)
    assert not views.publish(2, "v", "c", 100)  # 300 > 250
    assert views.publish(3, "v", "d", 50)  # what still fits is admitted
    assert not views.publish(4, "v", "e", 1)
    assert views.lookup(0, "v") == "a" and views.lookup(2, "v") is MISSING
    stats = views.stats()
    assert stats["charged_bytes"] == 250 and stats["resident_blocks"] == 3
    assert stats["admitted"] == 3 and stats["refused_at_cap"] == 2


def test_resident_blocks_is_kept_not_recounted(monkeypatch):
    """``stats()`` answers from a per-block count kept by ``publish``,
    ``encode`` and the roll-over's sweep; it must equal what a walk over
    the views says."""
    monkeypatch.setattr(tokens, "TOKEN_DICTIONARY_CAP", 4)
    views = DerivedViews()

    def recounted():
        return len({block for block, _view in views._views})

    for block in range(4):
        views.encode(Counter([f"w{block}"]), 1, block, 10)
        if block % 2:
            views.publish(block, "shape", block, 10)
        views.publish(block, ENCODED_VIEW, "again", 10)  # counts once
        assert views.stats()["resident_blocks"] == recounted() == block + 1
    views.encode(Counter(["w4"]))  # a 5th word: roll over
    # Blocks 0 and 2 held only their encodings.
    assert views.stats()["resident_blocks"] == recounted() == 2
    views.encode(Counter(["w0"]), 1, 0, 10)
    assert views.stats()["resident_blocks"] == recounted() == 3


class _CountingLock:
    """Stands in for the table's lock and counts its acquisitions."""

    def __init__(self):
        self.acquisitions = 0

    def __enter__(self):
        self.acquisitions += 1

    def __exit__(self, *exc_info):
        pass


def test_lookup_takes_the_lock_once():
    """A hit or a miss is one acquisition of the table's lock, and so is
    a served encoding: its dictionary's idle clock ticks under that one
    acquisition, so a warm summing visit takes the lock once."""
    views = DerivedViews()
    views.publish(0, "v", "value", 10)
    encoded = views.encode(Counter(["a"]), 1, 1, 10)
    dictionary = encoded.dictionary
    ticks = dictionary.blocks
    lock = views._lock = dictionary._lock = _CountingLock()
    assert views.lookup(0, "v") == "value"
    assert lock.acquisitions == 1  # a hit
    assert views.lookup(2, "v") is MISSING
    assert lock.acquisitions == 2  # a miss
    assert views.lookup(1, ENCODED_VIEW) is encoded
    assert lock.acquisitions == 3  # a served encoding ...
    assert dictionary.blocks == ticks + 1  # ... ticks the clock with it
    assert views.lookup(0, "v") == "value"
    assert dictionary.blocks == ticks + 1  # another view does not
    stats = views.stats()
    assert (stats["hits"], stats["misses"], stats["invalidated"]) == (3, 1, 0)


def test_row_table_slots_are_write_once_and_the_budget_is_exact():
    """Four threads (more than cores, interleaved inside ``keep``) offer
    overlapping rows of one block: a slot keeps the first record it
    took, and the text kept lands exactly on the budget — a lost update
    to the room, or a slot filled twice, would miss it."""
    rows, text = 64, 10
    table = RowTable(rows, 40 * text * tokens.ROW_TABLE_TEXT_DIVISOR)
    start = threading.Barrier(4)
    seen = [[] for _ in range(4)]

    def work(k):
        start.wait(timeout=10)
        for round_ in range(200):
            batch = [(k * 17 + round_ * 5 + step) % rows for step in range(3)]
            table.keep(batch, [text] * 3, [(row, k, round_) for row in batch])
            seen[k].extend((row, table.slots[row]) for row in batch)

    _run_interleaved(*(functools.partial(work, k) for k in range(4)))
    kept = [slot for slot in table.slots if slot is not None]
    assert len(kept) == 40 and table._room == 0
    for row, slot in (entry for log in seen for entry in log):
        assert slot is None or (slot is table.slots[row] and slot[0] == row)


def test_concurrent_tasks_keep_the_books_straight(monkeypatch):
    """Four threads (more than cores, a switch interval that interleaves
    them inside the table) look up and publish overlapping blocks at
    once: every lookup is a hit or a miss, every charge is an admitted
    view's, and the cap holds at every instant anyone looked."""
    cap = 40 * 10
    monkeypatch.setattr(tokens, "DERIVED_VIEWS_CAP_BYTES", cap)
    views = DerivedViews()
    lookups = [0] * 4
    start = threading.Barrier(4)
    over_cap = []

    def work(k):
        start.wait(timeout=10)
        for round_ in range(200):
            block = (k * 13 + round_ * 7) % 60
            lookups[k] += 1
            if views.lookup(block, "v") is MISSING:
                views.publish(block, "v", block, 10)
            if views.stats()["charged_bytes"] > cap:
                over_cap.append(block)

    _run_interleaved(*(functools.partial(work, k) for k in range(4)))
    stats = views.stats()
    assert not over_cap
    assert stats["hits"] + stats["misses"] == sum(lookups)
    assert stats["charged_bytes"] == 10 * stats["admitted"] == cap
    assert stats["resident_blocks"] == stats["admitted"] == 40
    for block in range(60):
        assert views.lookup(block, "v") in (block, MISSING)


# ------------------------------------------------------------ bound BlockData

def test_bound_block_derives_once_per_table(monkeypatch):
    derives = []
    original = BlockData.token_counts
    monkeypatch.setattr(
        BlockData, "token_counts",
        lambda self: derives.append(self.raw()) or original(self))
    views = DerivedViews()
    raw = b"to be or not to be\n"
    first = BlockData(raw).bind(views, 7).encoded()
    again = BlockData(raw).bind(views, 7).encoded()  # a later lap's object
    assert again is first and derives == [raw]
    words = tuple(map(first.dictionary.words.__getitem__, first.ids.tolist()))
    assert (words, first.counts.tolist()) == (
        ("to", "be", "or", "not"), [2, 2, 1, 1])
    assert BlockData(raw).encoded() is not first  # unbound: derived anew
    other = DerivedViews()
    assert BlockData(raw).bind(other, 7).encoded() is not first
    assert len(derives) == 3
    assert views.stats()["hits"] == 1 and views.stats()["misses"] == 1


def test_only_compact_views_are_kept():
    views = DerivedViews()
    block = BlockData(b"a b\nc\n").bind(views, 0)
    block.text(), block.lines(), block.token_counts(), block.line_count()
    assert views.stats() == ZERO  # none of these goes near the table
    block.encoded()
    assert block.memo("shape", lambda: (1, 2)) == (1, 2)
    assert views.stats()["admitted"] == 2
    later = BlockData(b"a b\nc\n").bind(views, 0)
    assert later.memo("shape", lambda: pytest.fail("recomputed")) == (1, 2)
    assert later.memo("shape", lambda: pytest.fail("recomputed")) == (1, 2)
    assert views.stats()["hits"] == 1  # the second ask is the wave's memo


def test_block_with_a_dictionary_of_its_own_is_never_admitted(monkeypatch):
    monkeypatch.setattr(tokens, "TOKEN_DICTIONARY_CAP", 3)
    views = DerivedViews()
    narrow = BlockData(b"a b\n").bind(views, 0).encoded()
    wide = BlockData(b"a b c d e\n").bind(views, 1).encoded()
    assert wide.dictionary is not narrow.dictionary
    assert views.stats()["admitted"] == 1
    assert views.lookup(1, ENCODED_VIEW) is MISSING
    # Asking for it again encodes it again and retires nothing.
    assert BlockData(b"a b c d e\n").bind(views, 1).encoded() is not wide
    assert BlockData(b"a b\n").bind(views, 0).encoded() is narrow
    assert views.stats()["invalidated"] == 0


def test_roll_over_drops_only_its_own_tables_encodings(monkeypatch):
    """A block of the handle that rolls its table's dictionary over
    drops that table's encoded views at once — no other view, and
    nothing of another table — so the retired dictionary is garbage
    once the blocks in flight are; the next lap re-admits every block."""
    monkeypatch.setattr(tokens, "TOKEN_DICTIONARY_CAP", 6)
    views, other = DerivedViews(), DerivedViews()
    views.encode(Counter(["x", "y"]))  # words the next lap will not need
    blocks = [b"a b\n", b"c d\n", b"a d\n"]
    kept = [BlockData(raw).bind(views, i).encoded()
            for i, raw in enumerate(blocks)]
    theirs = [BlockData(raw).bind(other, i).encoded()
              for i, raw in enumerate(blocks)]
    assert BlockData(blocks[0]).bind(views, 0).memo("shape", lambda: 1) == 1
    retired = weakref.ref(kept[0].dictionary)
    assert views.stats()["admitted"] == 4
    BlockData(b"e\n").bind(views, 3).encoded()  # a 7th word: roll
    stats = views.stats()
    assert stats["invalidated"] == 3 and stats["resident_blocks"] == 2
    del kept
    gc.collect()
    assert retired() is None  # nothing in the table pins it
    assert views.lookup(0, "shape") == 1  # the memo view stays
    lap = [BlockData(raw).bind(views, i).encoded()
           for i, raw in enumerate(blocks)]
    assert views.stats()["admitted"] == 4 + 1 + 3  # re-admitted
    assert all(BlockData(raw).bind(views, i).encoded() is encoded
               for (i, raw), encoded in zip(enumerate(blocks), lap))
    assert other.stats()["invalidated"] == 0
    assert all(BlockData(raw).bind(other, i).encoded() is encoded
               for (i, raw), encoded in zip(enumerate(blocks), theirs))


# ------------------------------------------------------------------ the scan

def _lines(total_bytes=24_000, vocabulary=120, seed=5):
    return list(TextCorpusGenerator(vocabulary_size=vocabulary,
                                    seed=seed).lines(total_bytes))


def _observed(report, store, out_root):
    """Everything a caller can see of a run: part files as bytes, job
    counters, the store's cumulative ReadStats."""
    parts = {}
    for job_id, result in sorted(report.results.items()):
        for path in write_output(result, out_root / job_id):
            parts[job_id, path.name] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return (parts,
            {job_id: list(result.counters)
             for job_id, result in report.results.items()},
            dataclasses.asdict(store.stats_snapshot()))


#: The ``ReadStats`` fields that count visits, not how they were served.
LOGICAL = ("blocks_read", "bytes_read", "replica_fallback_reads")


def _keep_nothing(patch):
    """Make every table keep nothing, so every visit reads its block:
    the byte-reading reference."""
    patch.setattr(DerivedViews, "lookup", lambda self, block, view: MISSING)
    patch.setattr(DerivedViews, "_admit", lambda self, *args: False)


def _assert_reads_no_more(observed, reference):
    """``observed`` is what the byte-reading ``reference`` let a caller
    see, on an uncached store, but for the tier that served each visit:
    the same part files, counters and logical reads, every visit the
    table did not serve read from disk, and never more disk reads."""
    assert observed[:2] == reference[:2]
    seen, ref = observed[2], reference[2]
    assert ({field: seen[field] for field in LOGICAL}
            == {field: ref[field] for field in LOGICAL})
    assert (seen["physical_blocks_read"] + seen["view_blocks_read"]
            == seen["blocks_read"])
    assert seen["physical_blocks_read"] <= ref["physical_blocks_read"]


def _three_laps(store, backend, out_root, on_iteration_end=None):
    """Three jobs, each a full lap of its own (the next is admitted when
    the one before has wrapped)."""
    per_lap = _waves_per_lap(store)
    jobs = [wordcount_job("lap1", ".*a$"),
            wordcount_job("lap2", "^[bcd].*", use_combiner=False),
            wordcount_job("lap3", ".*a$")]
    config = ExecutionConfig(blocks_per_segment=2, map_backend=backend,
                             map_workers=2)
    with SharedScanRunner(store, config) as runner:
        report = runner.run(jobs, {"lap2": per_lap, "lap3": 2 * per_lap},
                            on_iteration_end=on_iteration_end)
    return _observed(report, store, out_root)


def _waves_per_lap(store):
    return -(-store.num_blocks // 2)


def test_a_scan_derives_each_block_once_whatever_the_laps(tmp_path):
    store = BlockStore.create(tmp_path / "corpus", _lines(), 2_000)
    _three_laps(store, "serial", tmp_path / "out")
    stats = store.derived.stats()
    n = store.num_blocks
    assert store.stats_snapshot().blocks_read == 3 * n  # every read issued
    assert (stats["misses"], stats["hits"]) == (n, 2 * n)
    assert stats["admitted"] == stats["resident_blocks"] == n
    assert stats["charged_bytes"] == store.total_bytes


def test_capped_table_keeps_the_first_k_blocks_it_met(tmp_path, monkeypatch):
    lines = _lines()
    reference_store = BlockStore.create(tmp_path / "reference", lines, 2_000)
    reference = _three_laps(reference_store, "serial", tmp_path / "ref-out")

    store = BlockStore.create(tmp_path / "corpus", lines, 2_000)
    n, k = store.num_blocks, 4
    assert n > k + 2
    cap = sum(store.block_size_bytes(i) for i in range(k))
    monkeypatch.setattr(tokens, "DERIVED_VIEWS_CAP_BYTES", cap)
    observed = _three_laps(store, "serial", tmp_path / "out")
    assert observed[:2] == reference[:2]
    # One physical read per block per handle while its view is kept: the
    # two warm laps (the second maps, the third sums) each read again
    # the n - k blocks not kept.
    unkept = store.total_bytes - cap
    expected = dict(reference[2])
    for field, more in (("physical_blocks_read", 2 * (n - k)),
                        ("physical_bytes_read", 2 * unkept),
                        ("mmap_blocks_read", 2 * (n - k)),
                        ("view_blocks_read", 2 * (k - n))):
        expected[field] += more
    assert observed[2] == expected
    stats = store.derived.stats()
    assert stats["admitted"] == stats["resident_blocks"] == k
    assert stats["hits"] == 2 * k and stats["misses"] == 3 * n - 2 * k
    assert stats["charged_bytes"] == cap
    assert stats["refused_at_cap"] == 3 * (n - k)
    for index in range(n):  # exactly the first k of the scan
        kept = store.derived.lookup(index, ENCODED_VIEW)
        assert (kept is not MISSING) == (index < k)


@pytest.mark.parametrize("backend", MAP_BACKENDS)
def test_roll_over_mid_scan_with_a_warm_table_changes_nothing_observable(
        tmp_path, monkeypatch, backend):
    """The roll-over test with the table in play: under three laps of a
    scan whose table holds half the file, the handle's dictionary rolls
    over in the middle of the second, so views are admitted, refused,
    served, dropped and re-admitted mid-scan; outputs, counters and
    logical ReadStats equal those of the same plan with a table that
    keeps nothing, under the shipped caps, with no more disk reads."""
    lines = _lines()
    with monkeypatch.context() as tableless:
        _keep_nothing(tableless)
        reference_store = BlockStore.create(tmp_path / "reference", lines,
                                            2_000)
        reference = _three_laps(reference_store, backend,
                                tmp_path / "ref-out")
        assert reference_store.derived.stats() == ZERO

    store = BlockStore.create(tmp_path / "corpus", lines, 2_000)
    # The corpus has 119 words.  The dictionary starts with 20 others,
    # so two more roll it over once every corpus word is in, and the
    # dictionary that replaces it has room for the corpus again.
    cap = 140
    monkeypatch.setattr(tokens, "TOKEN_DICTIONARY_CAP", cap)
    monkeypatch.setattr(tokens, "DERIVED_VIEWS_CAP_BYTES",
                        store.total_bytes // 2)
    store.derived.encode(Counter(f"ballast{i}" for i in range(20)))

    def roll_over(iteration, run_states):
        if iteration == _waves_per_lap(store) + 1:
            store.derived.encode(Counter(["two", "more"]))

    _assert_reads_no_more(
        _three_laps(store, backend, tmp_path / "out", roll_over), reference)
    stats = store.derived.stats()
    assert stats["refused_at_cap"] > 0 and stats["invalidated"] > 0
    assert stats["hits"] > 4  # before the roll-over and after it
    assert stats["admitted"] > stats["resident_blocks"]  # re-admitted
    assert stats["charged_bytes"] <= store.total_bytes // 2
    assert len(store.derived._dictionary.words) <= cap


def test_derived_state_locks_are_never_nested(tmp_path, monkeypatch):
    """A handle's table lock guards its views and its dictionaries; the
    row tables' locks are leaves.  Across rolling wordcount laps and
    selection laps that fill row tables, neither is taken under the
    other."""
    monkeypatch.setattr(tokens, "TOKEN_DICTIONARY_CAP", 100)  # rolls often
    store = BlockStore.create(tmp_path / "corpus", _lines(), 2_000)
    _three_laps(store, "serial", tmp_path / "out")
    assert store.derived.stats()["invalidated"] > 0
    rows = BlockStore.create(tmp_path / "rows", _lineitem_rows(), 3_000)
    for _lap in range(2):
        SharedScanRunner(rows, reader=LINEITEM_READER).run(
            [selection_job("sel", 10.0)])
    graph = lock_order_graph()
    table, row_table = "DerivedViews._lock", "RowTable._lock"
    assert not graph.get(table)  # nothing is acquired under the table's
    assert not graph.get(row_table)  # nor under a row table's


def test_warm_wordcount_lap_reads_no_byte_of_the_block(tmp_path, monkeypatch):
    """The record count rides with the encoded view: on a warm handle
    nothing counts the block's newlines again, and no block is loaded —
    each visit is still counted as a logical read."""
    store = BlockStore.create(tmp_path / "corpus", _lines(), 2_000)
    counted = _spy_on_loads(monkeypatch)
    job = [wordcount_job("wc", ".*a$")]
    cold = SharedScanRunner(store).run(job)
    n = store.num_blocks
    assert len(counted) == n  # once per block, on the miss
    warm = SharedScanRunner(store).run(job)
    assert len(counted) == n
    assert warm.io.blocks_read == cold.io.blocks_read == n
    assert warm.io.bytes_read == cold.io.bytes_read == store.total_bytes
    assert (cold.io.physical_blocks_read, cold.io.view_blocks_read) == (n, 0)
    assert (warm.io.physical_blocks_read, warm.io.view_blocks_read) == (0, n)
    assert warm.results["wc"].output == cold.results["wc"].output
    assert warm.results["wc"].map_input_records \
        == cold.results["wc"].map_input_records == len(_lines())
    assert list(warm.results["wc"].counters) \
        == list(cold.results["wc"].counters)
    assert store.derived.stats()["hits"] == n  # one lookup per visit


def test_encoded_view_carries_the_record_count(monkeypatch):
    views = DerivedViews()
    corpus = (b"", b"\n", b"a", b"a\n", b"a\nb", b"a\nb\n", b"\n\n",
              b"x\n\ny\n")  # tests/localrt/test_api.py's line-count corpus
    for index, raw in enumerate(corpus):
        records = len(split_records(raw.decode()))
        assert BlockData(raw).bind(views, index).encoded().lines == records
        warm = BlockData(raw).bind(views, index)
        with monkeypatch.context() as uncountable:
            uncountable.setattr(BlockData, "raw", None)
            assert warm.encoded().lines == warm.line_count() == records
    assert views.stats()["hits"] == len(corpus)


def test_empty_block_creates_no_counter_cell_cold_or_warm():
    views = DerivedViews()
    kernel = PatternWordCountBlock(".*")
    for _visit in range(2):
        count, outputs, counters = kernel.map_block(
            BlockData(b"").bind(views, 0), 0)
        assert (count, outputs, list(counters)) == (0, [], [])
        # Blank records are records: the per-record path touches both
        # cells once per record, creating them at zero.
        count, outputs, counters = kernel.map_block(
            BlockData(b"\n\n").bind(views, 1), 0)
        assert (count, outputs) == (2, [])
        assert counters.value("wordcount", "words_scanned") == 0
        assert len(list(counters)) == 2
    assert views.stats()["hits"] == 2


# ------------------------------------------------------------- store handles

def test_view_published_from_the_primary_is_served_after_shard_loss(tmp_path):
    lines = _lines()
    job = [wordcount_job("wc", ".*a$")]

    def lap(store):
        return SharedScanRunner(
            store, ExecutionConfig(blocks_per_segment=3)).run(job)

    store = ShardedBlockStore.create(tmp_path / "sharded", lines, 2_000,
                                     num_shards=3, replication=2)
    n = store.num_blocks
    first = lap(store)
    assert store.derived.stats()["misses"] == n
    store.fail_shard(0)
    second = lap(store)
    # Served from the table: no replica is read, so none fails over.
    assert second.io.replica_fallback_reads == 0
    assert second.io.blocks_read == second.io.view_blocks_read == n
    store.restore_shard(0)
    third = lap(store)
    assert third.io.replica_fallback_reads == 0
    assert first.results["wc"].output == second.results["wc"].output \
        == third.results["wc"].output
    stats = store.derived.stats()
    assert (stats["misses"], stats["hits"]) == (n, 2 * n)
    assert store.stats_snapshot().replica_fallback_reads == 0


def test_two_handles_on_one_directory_share_nothing(tmp_path):
    directory = tmp_path / "corpus"
    first = BlockStore.create(directory, _lines(), 2_000)
    second = BlockStore(directory)
    FifoLocalRunner(first).run([wordcount_job("wc", ".*a$")])
    assert first.derived.stats()["admitted"] == first.num_blocks
    assert second.derived is not first.derived
    assert second.derived.stats() == ZERO
    FifoLocalRunner(second).run([wordcount_job("wc", ".*a$")])
    assert second.derived.stats()["hits"] == 0


def test_dropped_handle_takes_its_table_with_it(tmp_path):
    store = BlockStore.create(tmp_path / "corpus", _lines(), 2_000)
    FifoLocalRunner(store).run([wordcount_job("wc", ".*a$")])
    table = weakref.ref(store.derived)
    assert table().stats()["resident_blocks"] == store.num_blocks
    del store
    gc.collect()
    assert table() is None


def test_a_handles_dictionary_dies_with_it(tmp_path):
    """State is bounded in time: what a handle derived — its dictionary
    with its verdicts and reduce codes included — is garbage once the
    handle and its runners are, whatever the runs' reports still hold."""
    store = BlockStore.create(tmp_path / "corpus", _lines(), 2_000)
    runner = SharedScanRunner(store)
    report = runner.run([wordcount_job("wc", ".*a$")])
    dictionary = weakref.ref(store.derived.lookup(0, ENCODED_VIEW).dictionary)
    assert dictionary().verdicts and len(dictionary().rank)
    del store, runner
    gc.collect()
    assert dictionary() is None
    assert report.results["wc"].output


def test_a_handles_roll_over_leaves_another_handles_views_alone(
        tmp_path, monkeypatch):
    """Two handles share no dictionary: one whose vocabulary rolls its
    dictionary over drops its own encodings only, and the other's warm
    lap is still served whole from its table."""
    monkeypatch.setattr(tokens, "TOKEN_DICTIONARY_CAP", 1_000)
    quiet = BlockStore.create(tmp_path / "quiet",
                              _lines(10_000, vocabulary=53), 2_000)
    busy = BlockStore.create(tmp_path / "busy",
                             [f"word{i}" for i in range(1_500)], 2_000)
    job = [wordcount_job("wc", ".*a$")]
    cold = SharedScanRunner(quiet).run(job)
    assert cold.io.physical_blocks_read == quiet.num_blocks
    SharedScanRunner(busy).run(job)
    warm = SharedScanRunner(quiet).run(job)
    assert warm.io.physical_blocks_read == 0
    assert warm.io.view_blocks_read == quiet.num_blocks
    assert quiet.derived.stats()["invalidated"] == 0
    assert warm.results["wc"].output == cold.results["wc"].output
    assert busy.derived.stats()["invalidated"] > 0  # it did roll over


@pytest.mark.parametrize("backend", MAP_BACKENDS)
def test_invalid_utf8_block_raises_the_same_error_on_every_lap(tmp_path,
                                                               backend):
    directory = tmp_path / "corpus"
    BlockStore.create(directory, _lines(8_000), 2_000)
    bad = directory / BlockStore.BLOCK_PATTERN.format(1)
    bad.write_bytes(b"fine words\n\xff\xfe broken\n")
    store = BlockStore(directory)
    config = ExecutionConfig(map_backend=backend, map_workers=2)
    messages = []
    for _lap in range(2):
        with pytest.raises(ExecutionError) as raised:
            with FifoLocalRunner(store, config) as runner:
                runner.run([wordcount_job("wc", ".*")])
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("block 1 is not valid UTF-8")
    assert store.derived.lookup(1, ENCODED_VIEW) is MISSING


# -------------------------------------------------------------- other kernels

def _lineitem_rows(total_bytes=12_000):
    return list(LineitemGenerator(seed=3).rows_for_bytes(total_bytes))


LINEITEM_READER = DelimitedReader("|", len(LINEITEM_COLUMNS))
FLAG_SUMS_VIEW = ("flag_sums", b"|", len(LINEITEM_COLUMNS))
ROWS_VIEW = ("rows", b"|", len(LINEITEM_COLUMNS))
QUANTITIES_VIEW = ("quantities", b"|", len(LINEITEM_COLUMNS))


def test_selection_kernel_shares_its_structural_pass_across_laps(tmp_path):
    store = BlockStore.create(tmp_path / "lineitem", _lineitem_rows(), 3_000)
    outputs = []
    for _lap in range(2):
        report = SharedScanRunner(store, reader=LINEITEM_READER).run(
            [selection_job("lo", 10.0), selection_job("hi", 30.0)])
        outputs.append({job_id: result.output
                        for job_id, result in report.results.items()})
    assert outputs[0] == outputs[1]
    stats = store.derived.stats()  # two views a block: quantities, rows
    assert stats["misses"] == stats["admitted"] == 2 * store.num_blocks
    assert stats["hits"] == 2 * store.num_blocks
    assert stats["resident_blocks"] == store.num_blocks


def test_aggregation_riders_share_one_per_line_pass(tmp_path, monkeypatch):
    """Two ``agg`` riders in a wave, two laps: the per-line loop runs
    once per block per store handle, and what each rider gets is a list
    of its own."""
    passes = []
    original = AggregationBlockMapper._flag_sums
    monkeypatch.setattr(
        AggregationBlockMapper, "_flag_sums",
        lambda self, block, offset: passes.append(offset)
        or original(self, block, offset))
    store = BlockStore.create(tmp_path / "lineitem", _lineitem_rows(), 3_000)
    reference = FifoLocalRunner(
        BlockStore(store.directory), reader=LINEITEM_READER).run(
            [aggregation_job("ref", batched=False)]).results["ref"]
    for lap in range(2):
        report = SharedScanRunner(store, reader=LINEITEM_READER).run(
            [aggregation_job("a"), aggregation_job("b"),
             selection_job("lo", 10.0)])
        assert len(passes) == store.num_blocks, lap
        for job_id in "ab":
            result = report.results[job_id]
            assert repr(result.output) == repr(reference.output)
            assert result.map_input_records == reference.map_input_records
            assert result.map_output_records == reference.map_output_records
            assert list(result.counters) == list(reference.counters)
    assert passes == [store.block_offset(i) for i in range(store.num_blocks)]
    stats = store.derived.stats()  # three views a block: quantities,
    assert stats["misses"] == stats["admitted"] == 3 * store.num_blocks
    assert stats["hits"] == 3 * store.num_blocks  # rows, flag sums
    kernel = AggregationBlockMapper()
    block = BlockData(store.read_block_bytes(0)).bind(store.derived, 0)
    first, second = (kernel.map_block(block, 0)[1] for _ in range(2))
    assert first == second and first is not second
    assert len(passes) == store.num_blocks  # served from the table


def _has_unkept_rows(views, index, threshold):
    """Whether block ``index``'s kept row table lacks a row that a
    selection at ``threshold`` emits."""
    column = views.lookup(index, QUANTITIES_VIEW)
    quantities = np.empty_like(column.ranked)
    quantities[column.rank] = column.ranked
    table = views.lookup(index, ROWS_VIEW)
    return any(table.slots[row] is None
               for row in np.flatnonzero(quantities < threshold).tolist())


def test_aggregation_view_is_served_after_shard_loss(tmp_path):
    jobs = [aggregation_job("agg"), selection_job("lo", 10.0)]

    def lap(store):
        return SharedScanRunner(
            store, ExecutionConfig(blocks_per_segment=3),
            reader=LINEITEM_READER).run(jobs)

    store = ShardedBlockStore.create(tmp_path / "sharded", _lineitem_rows(),
                                     2_000, num_shards=3, replication=2)
    n = store.num_blocks
    first = lap(store)
    assert store.derived.stats()["misses"] == 3 * n
    store.fail_shard(0)
    second = lap(store)
    assert second.io.blocks_read == n
    store.restore_shard(0)
    third = lap(store)
    assert third.io.replica_fallback_reads == 0
    for job in jobs:
        assert repr(first.results[job.job_id].output) \
            == repr(second.results[job.job_id].output) \
            == repr(third.results[job.job_id].output)
    stats = store.derived.stats()
    assert (stats["misses"], stats["hits"]) == (3 * n, 6 * n)
    # A warm visit reads its block only for selected rows past the row
    # table's budget (the table is full after the first lap); every
    # other visit is served from the table, so only those reads can
    # fail over.
    unkept = [index for index in range(n)
              if _has_unkept_rows(store.derived, index, 10.0)]
    assert 0 < len(unkept) < n
    assert second.io.physical_blocks_read == len(unkept)
    assert second.io.replica_fallback_reads \
        == len([index for index in unkept if index % 3 == 0])
    assert store.derived.lookup(0, FLAG_SUMS_VIEW) is not MISSING
    assert store.derived.lookup(0, ROWS_VIEW) is not MISSING


def _malformed_block_laps(tmp_path, backend, make_job, laps):
    """A store whose block 1 has a good row, then one of three fields;
    the message each of ``laps`` runs of two riders died with, and the
    message the per-record reader words for that record."""
    directory = tmp_path / "lineitem"
    BlockStore.create(directory, _lineitem_rows(), 3_000)
    bad = directory / BlockStore.BLOCK_PATTERN.format(1)
    good_row = bad.read_bytes().split(b"\n")[0]
    bad.write_bytes(good_row + b"\n1|2|3\n")
    store = BlockStore(directory)
    config = ExecutionConfig(map_backend=backend, map_workers=2)
    messages = []
    for _lap in range(laps):
        with pytest.raises(ValueError) as raised:
            with FifoLocalRunner(store, config,
                                 reader=LINEITEM_READER) as runner:
                runner.run([make_job("a"), make_job("b")])
        messages.append(str(raised.value))
    return store, messages, (
        f"malformed record at offset "
        f"{store.block_offset(1) + len(good_row) + 1}: "
        f"3 fields, expected {len(LINEITEM_COLUMNS)}")


@pytest.mark.parametrize("backend", MAP_BACKENDS)
def test_malformed_block_raises_the_same_error_on_every_lap(tmp_path,
                                                            backend):
    store, messages, expected = _malformed_block_laps(
        tmp_path, backend, aggregation_job, laps=2)
    assert messages == [expected] * 2
    assert store.derived.lookup(1, FLAG_SUMS_VIEW) is MISSING
    assert store.derived.lookup(0, FLAG_SUMS_VIEW) is not MISSING


@pytest.mark.parametrize("backend", MAP_BACKENDS)
def test_malformed_block_publishes_no_row_table(tmp_path, backend):
    """The malformed block's first row parses fine and every rider
    wants it — but a row table is published only by a pass that raised
    nothing, so every lap dies on the reader's own words."""
    store, messages, expected = _malformed_block_laps(
        tmp_path, backend, lambda job_id: selection_job(job_id, 51.0),
        laps=3)
    assert messages == [expected] * 3
    assert store.derived.lookup(1, ROWS_VIEW) is MISSING
    assert store.derived.lookup(0, ROWS_VIEW) is not MISSING


# ------------------------------------------------------------ lazy visits

def _spy_on_loads(monkeypatch):
    """The block index of every visit that loads its block's bytes."""
    loaded = []
    raw = BlockData.raw

    def loading(self):
        if not self.fetched:
            loaded.append(self._block)
        return raw(self)

    monkeypatch.setattr(BlockData, "raw", loading)
    return loaded


def test_a_selection_past_the_row_budget_loads_only_what_it_lacks(
        tmp_path, monkeypatch):
    """A warm lap of a selection rider whose rows fit the row table and
    one whose rows do not, beside an aggregation: only the visits of
    blocks holding a selected row the table could not keep load the
    block; every other visit is served from the table."""
    loaded = _spy_on_loads(monkeypatch)
    store = BlockStore.create(tmp_path / "lineitem", _lineitem_rows(),
                              2_000)
    n = store.num_blocks
    jobs = [selection_job("narrow", 2.0), selection_job("wide", 10.0),
            aggregation_job("agg")]
    reports = []
    for _lap in range(2):
        reports.append(SharedScanRunner(store, reader=LINEITEM_READER).run(
            jobs))
    assert loaded[:n] == list(range(n))  # the cold lap loads every block
    unkept = [index for index in range(n)
              if _has_unkept_rows(store.derived, index, 10.0)]
    assert not any(_has_unkept_rows(store.derived, index, 2.0)
                   for index in range(n))
    assert 0 < len(unkept) < n
    assert loaded[n:] == unkept
    warm = reports[1].io
    assert (warm.blocks_read, warm.physical_blocks_read,
            warm.view_blocks_read) == (n, len(unkept), n - len(unkept))
    for job in jobs:
        assert repr(reports[0].results[job.job_id].output) \
            == repr(reports[1].results[job.job_id].output)


def test_non_utf8_lineitem_block_raises_the_same_error_on_every_lap(
        tmp_path):
    """Block 1's second row has a byte that is not UTF-8 in its return
    flag, which the selection decodes with its row and the aggregation
    with its flag: every lap dies on the block, in the same words,
    although the views of the rows before it could be kept."""
    directory = tmp_path / "lineitem"
    BlockStore.create(directory, _lineitem_rows(), 3_000)
    bad = directory / BlockStore.BLOCK_PATTERN.format(1)
    good, second = bad.read_bytes().split(b"\n")[:2]
    fields = second.split(b"|")
    fields[LINEITEM_COLUMNS.index("l_returnflag")] = b"\xff"
    bad.write_bytes(good + b"\n" + b"|".join(fields) + b"\n")
    store = BlockStore(directory)
    for make_jobs in ([selection_job("sel", 51.0)],
                      [aggregation_job("agg")],
                      [aggregation_job("agg"), selection_job("sel", 51.0)]):
        messages = []
        for _lap in range(2):
            with pytest.raises(ExecutionError) as raised:
                SharedScanRunner(store, reader=LINEITEM_READER).run(make_jobs)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("block 1 is not valid UTF-8")
    assert store.derived.lookup(1, FLAG_SUMS_VIEW) is MISSING


def test_mapped_riders_are_served_while_every_replica_is_down(tmp_path):
    """Selection and aggregation riders on a warm handle: block 0's
    replicas are all down, yet a lap whose views are all kept serves
    every visit from the table, with the same outputs; a rider that
    needs the bytes still fails on the block."""
    jobs = [selection_job("lo", 2.0), aggregation_job("agg")]
    store = ShardedBlockStore.create(tmp_path / "sharded", _lineitem_rows(),
                                     2_000, num_shards=3, replication=2)
    n = store.num_blocks

    def lap(riders):
        return SharedScanRunner(store, reader=LINEITEM_READER).run(riders)

    cold = lap(jobs)
    store.fail_shard(0)
    store.fail_shard(1)  # block 0 lives on shards 0 and 1 only
    warm = lap(jobs)
    assert (warm.io.blocks_read, warm.io.view_blocks_read,
            warm.io.physical_blocks_read,
            warm.io.replica_fallback_reads) == (n, n, 0, 0)
    for job in jobs:
        assert repr(warm.results[job.job_id].output) \
            == repr(cold.results[job.job_id].output)
    with pytest.raises(ExecutionError, match="all 2 replicas of block 0"):
        lap([selection_job("all", 51.0)])


# ------------------------------------------------------------- the row table

_QUANTITY = LINEITEM_COLUMNS.index("l_quantity")
BATCH_THRESHOLDS = [quantity_threshold_for_selectivity(share)
                    for share in (0.02, 0.05, 0.10)] * 2


def _spy_on_row_records(monkeypatch):
    parsed = []
    original = SelectionBlockMapper._row_record
    monkeypatch.setattr(
        SelectionBlockMapper, "_row_record",
        lambda self, line: parsed.append(bytes(line))
        or original(self, line))
    return parsed


def _qualifying(rows, threshold):
    return [row for row in rows
            if float(row.split("|")[_QUANTITY]) < threshold]


@pytest.mark.parametrize("columnar", [True, False],
                         ids=["columnar", "scalar"])
@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_a_qualifying_row_is_parsed_once_per_store_handle(
        tmp_path, monkeypatch, backend, columnar):
    """``sel_batch``'s rider set — six selections (2/5/10 % twice) and
    two aggregations, job *i* admitted at iteration *i* — for three
    laps: the rows the widest threshold selects are parsed once each,
    whichever rider met them first, and never again on that handle.
    The scalar path (every block refused by the columnar parse) shares
    through the same helper."""
    if not columnar:
        monkeypatch.setattr(SelectionBlockMapper, "_columnar_quantities",
                            lambda self, block: None)
    parsed = _spy_on_row_records(monkeypatch)
    rows = _lineitem_rows(120_000)
    store = BlockStore.create(tmp_path / "lineitem", rows, 40_000)
    widest = _qualifying(rows, max(BATCH_THRESHOLDS))
    for index in range(store.num_blocks):  # no block is past its budget
        in_block = set(store.read_block_bytes(index).decode().split("\n"))
        assert sum(len(row) for row in widest if row in in_block) \
            <= store.block_size_bytes(index) // tokens.ROW_TABLE_TEXT_DIVISOR
    jobs = [selection_job(f"sel{i}", threshold)
            for i, threshold in enumerate(BATCH_THRESHOLDS)]
    jobs += [aggregation_job("agg0"), aggregation_job("agg1")]
    arrivals = {job.job_id: i for i, job in enumerate(jobs)}
    config = ExecutionConfig(blocks_per_segment=1, map_backend=backend,
                             map_workers=2)

    def three_laps(handle):
        outputs = []
        with SharedScanRunner(handle, config,
                              reader=LINEITEM_READER) as runner:
            for _lap in range(3):
                report = runner.run(jobs, arrivals)
                outputs.append({job_id: repr(result.output) for job_id, result
                                in report.results.items()})
        assert outputs[0] == outputs[1] == outputs[2]
        return outputs[0]

    first = three_laps(store)
    assert sorted(parsed) == sorted(row.encode() for row in widest)
    for threshold, job in zip(BATCH_THRESHOLDS, jobs):
        assert first[job.job_id].count("((") == len(
            _qualifying(rows, threshold))
    second = three_laps(BlockStore(store.directory))
    assert second == first
    assert len(parsed) == 2 * len(widest)  # two handles share nothing


def _deep_size(record):
    key, fields = record
    return sum(map(sys.getsizeof, (record, key, *key, fields, *fields)))


def test_row_table_stops_keeping_at_its_budget(tmp_path):
    """A rider that selects every row: each block's table keeps rows
    while they fit in one eighth of the block's bytes, the kept
    records weigh at most 1.5 x the block, what did not fit is parsed
    for the asking rider alone — and the part files do not care."""
    rows = _lineitem_rows(24_000)
    store = BlockStore.create(tmp_path / "lineitem", rows, 6_000)
    report = SharedScanRunner(store, reader=LINEITEM_READER).run(
        [selection_job("all", 51.0), selection_job("again", 51.0)])
    reference = FifoLocalRunner(
        BlockStore(store.directory), reader=LINEITEM_READER).run(
            [selection_job("all", 51.0, batched=False)])
    expected = [path.read_bytes() for path in write_output(
        reference.results["all"], tmp_path / "reference")]
    for job_id in ("all", "again"):
        result = report.results[job_id]
        assert result.map_output_records == len(rows)
        assert [path.read_bytes() for path in write_output(
            result, tmp_path / job_id)] == expected
    kept_rows = 0
    for index in range(store.num_blocks):
        block = store.read_block_bytes(index)
        table = store.derived.lookup(index, ROWS_VIEW)
        lines = block.split(b"\n")[:-1]
        assert len(table.slots) == len(lines)
        kept = [row for row, slot in enumerate(table.slots)
                if slot is not None]
        room = (len(block) // tokens.ROW_TABLE_TEXT_DIVISOR
                - sum(len(lines[row]) for row in kept))
        assert 0 < len(kept) < len(lines) and room >= 0
        # First asked, first kept; like the table of views, what still
        # fits is admitted, so no row left out would have fitted.
        assert all(len(line) > room for row, line in enumerate(lines)
                   if row not in kept)
        assert sum(_deep_size(table.slots[row]) for row in kept) \
            <= 1.5 * len(block)
        kept_rows += len(kept)
    # The two riders emit the *same* record for a kept row and a parse
    # of their own for the rest.
    shared = sum(mine[1] is theirs[1] for mine, theirs in zip(
        report.results["all"].output, report.results["again"].output))
    assert shared == kept_rows


class _DrainingReducer(Reducer):
    """Consumes ``values`` destructively, as a careless reducer might."""

    def reduce(self, key, values):
        while values:
            yield (key, values.pop())


def test_nobody_can_mutate_what_the_row_table_hands_out(tmp_path):
    """The records are shared; the lists that carry them are not.  A
    reducer that empties its ``values`` in place and a caller that
    scribbles over ``JobResult.output`` leave the next job's answer —
    served from the same table — what a fresh handle computes."""
    store = BlockStore.create(tmp_path / "lineitem", _lineitem_rows(), 3_000)
    reference = FifoLocalRunner(
        BlockStore(store.directory), reader=LINEITEM_READER).run(
            [selection_job("ref", 10.0, batched=False)]).results["ref"]
    careless = selection_job("careless", 10.0)
    careless.reducer = _DrainingReducer()
    first = SharedScanRunner(store, reader=LINEITEM_READER).run(
        [careless, selection_job("bystander", 10.0)])
    assert first.results["bystander"].output == reference.output
    scribbled = first.results["careless"].output
    assert sorted(scribbled) == sorted(reference.output)
    scribbled.reverse()
    scribbled[0] = ("not", "a row")
    del scribbled[1:]
    with pytest.raises(TypeError):  # the records themselves are tuples
        first.results["bystander"].output[0][1][0] = "0"
    misses = store.derived.stats()["misses"]
    later = SharedScanRunner(store, reader=LINEITEM_READER).run(
        [selection_job("later", 10.0)]).results["later"]
    assert store.derived.stats()["misses"] == misses  # all from the table
    assert later.output == reference.output
    assert later.map_output_records == reference.map_output_records


def test_two_runners_on_one_handle_fill_one_table(tmp_path):
    """Two runners sharing a store handle may map the same block at the
    same moment (one wave never does): both get the per-record answer,
    and the table's slots and budget stay whole — under
    ``REPRO_RACECHECK=1`` a write to the room outside the table's lock
    fails this test."""
    rows = _lineitem_rows()
    store = BlockStore.create(tmp_path / "lineitem", rows, 3_000)
    reference = FifoLocalRunner(
        BlockStore(store.directory), reader=LINEITEM_READER).run(
            [selection_job("ref", 51.0, batched=False)]).results["ref"]
    outputs = {}
    start = threading.Barrier(2)

    def scan(name):
        start.wait(timeout=10)
        with SharedScanRunner(store, reader=LINEITEM_READER) as runner:
            outputs[name] = runner.run(
                [selection_job(name, 51.0)]).results[name].output

    _run_interleaved(*(functools.partial(scan, name)
                       for name in ("left", "right")))
    assert outputs["left"] == outputs["right"] == reference.output
    for index in range(store.num_blocks):
        block = store.read_block_bytes(index)
        lines = block.split(b"\n")[:-1]
        table = store.derived.lookup(index, ROWS_VIEW)
        kept_text = sum(len(line) for line, slot in zip(lines, table.slots)
                        if slot is not None)
        budget = len(block) // tokens.ROW_TABLE_TEXT_DIVISOR
        assert kept_text == budget - table._room <= budget


def test_runners_filling_one_row_table_never_emit_none(
        tmp_path, monkeypatch):
    """Four runners (more threads than cores) on one store handle,
    selections from narrow to wide, map the same blocks at once, round
    after round on a fresh handle, with a budget that keeps only part of
    each block: every block output a rider hands the shuffle is free of
    ``None`` (a slot read empty but taken for kept), two runners are
    seen writing one table, and each job reads as its per-record run."""
    rows = _lineitem_rows()
    store = BlockStore.create(tmp_path / "lineitem", rows, 3_000)
    thresholds = {"s10": 10.0, "s20": 20.0, "s35": 35.0, "s51": 51.0}
    reference = {name: FifoLocalRunner(
        BlockStore(store.directory), reader=LINEITEM_READER).run(
            [selection_job(name, threshold, batched=False)]).results[name]
        for name, threshold in thresholds.items()}
    emitted_none = []
    writers = {}
    map_block, keep = SelectionBlockMapper.map_block, RowTable.keep

    def checked_map_block(self, data, base_offset):
        count, output, counters = map_block(self, data, base_offset)
        emitted_none.extend(record for record in output if record is None)
        return count, output, counters

    def recording_keep(self, *args):
        writers.setdefault(id(self), set()).add(threading.get_ident())
        keep(self, *args)

    monkeypatch.setattr(SelectionBlockMapper, "map_block", checked_map_block)
    monkeypatch.setattr(RowTable, "keep", recording_keep)
    monkeypatch.setattr(tokens, "ROW_TABLE_TEXT_DIVISOR", 2)
    for _round in range(4):
        handle = BlockStore(store.directory)
        outputs = {}
        start = threading.Barrier(len(thresholds))

        def scan(name):
            start.wait(timeout=10)
            with SharedScanRunner(handle, reader=LINEITEM_READER) as runner:
                outputs[name] = runner.run(
                    [selection_job(name, thresholds[name])]).results[name]

        _run_interleaved(*(functools.partial(scan, name)
                           for name in thresholds))
        for name, result in outputs.items():
            assert result.output == reference[name].output
            assert (result.map_output_records
                    == reference[name].map_output_records)
    assert emitted_none == []
    assert any(len(threads) >= 2 for threads in writers.values())


class _FilledAfterTheGather:
    """A row table's ``slots`` that run ``fill`` right after the first
    gather of a rider's rows (``take``), as another rider filling the
    table between this rider's two reads would."""

    def __init__(self, slots, fill):
        self._slots, self._fill = slots, fill

    def take(self, rows):
        gathered = self._slots.take(rows)
        if self._fill is not None:
            fill, self._fill = self._fill, None
            fill()
        return gathered

    def __setitem__(self, index, value):
        self._slots[index] = value


def test_a_row_filled_between_the_flag_and_slot_reads_is_emitted():
    """The interleaving that fixes the order of a rider's reads: another
    rider fills every row between this rider's read of the kept flags
    and its gather of the slots.  The flags, read first, said the rows
    were missing, so this rider parses them — it never emits the
    ``None`` its gather read (as it would if it gathered first and then
    read flags the other rider had raised meanwhile)."""
    text = "".join(row + "\n" for row in _lineitem_rows(2_000))
    data = text.encode()
    views = DerivedViews()
    # A selection of nothing publishes the block's empty row table.
    SelectionBlockMapper(0.5).map_block(BlockData(data).bind(views, 0), 0)
    table = views.lookup(0, ROWS_VIEW)
    other = SelectionBlockMapper(51.0)
    table.slots = _FilledAfterTheGather(
        table.slots, lambda: other.map_block(BlockData(data).bind(views, 0), 0))
    count, output, _ = SelectionBlockMapper(51.0).map_block(
        BlockData(data).bind(views, 0), 0)
    assert table.slots._fill is None  # the other rider filled the table
    assert table.kept.any()
    records = list(output)
    assert None not in records
    assert records == [record for key, value in LINEITEM_READER.read(text, 0)
                       for record in SelectionMapper(51.0).map(key, value)]
    assert count == len(records)


def test_two_wordcount_runners_on_one_handle_share_the_encoder(
        tmp_path, monkeypatch):
    """Two runners sharing a store handle map wordcount riders from two
    threads: they extend the same patterns' verdict arrays, roll the
    dictionary over (a cap of half the vocabulary) and absorb ids from
    each other's dictionaries at once, and every job still reads as its
    per-record run — under ``REPRO_RACECHECK=1`` a write to the
    handle's dictionary state outside its table's lock fails this
    test."""
    store = BlockStore.create(tmp_path / "corpus", _lines(), 2_000)
    patterns = ("^t.*", ".*a$", ".*e.*")

    def observed(result):
        return (result.output, list(result.counters),
                result.map_output_records, result.reduce_input_values)

    reference = FifoLocalRunner(BlockStore(store.directory)).run(
        [wordcount_job(p, p, batched=False) for p in patterns]).results
    monkeypatch.setattr(tokens, "TOKEN_DICTIONARY_CAP", 60)
    seen = {}
    start = threading.Barrier(2)

    def scan(name):
        start.wait(timeout=10)
        with SharedScanRunner(store) as runner:
            for lap in range(2):
                results = runner.run(
                    [wordcount_job(p, p) for p in patterns]).results
                seen[name, lap] = {p: observed(results[p]) for p in patterns}

    _run_interleaved(*(functools.partial(scan, name)
                       for name in ("left", "right")))
    expected = {p: observed(reference[p]) for p in patterns}
    assert len(seen) == 4
    assert all(per_job == expected for per_job in seen.values())


# ------------------------------------------------------------- observability

def test_traced_run_reports_the_table(tmp_path):
    store = BlockStore.create(tmp_path / "corpus", _lines(), 2_000)
    config = ExecutionConfig(trace=TraceConfig(enabled=True))
    runner = SharedScanRunner(store, config)
    runner.run([wordcount_job("wc", ".*a$")])
    events = runner.tracer.instants(name="derived.stats")
    assert len(events) == 1
    assert events[0].args == store.derived.stats()
    assert events[0].args["misses"] == store.num_blocks
