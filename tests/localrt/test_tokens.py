"""A store handle's token dictionary: ids, verdicts, bounds, roll-over,
and the threads that share it."""

import gc
import hashlib
import re
import sys
import threading
import weakref
from collections import Counter

import numpy as np
import pytest

import repro.localrt.tokens as tokens
from repro.common.config import MAP_BACKENDS, ExecutionConfig
from repro.localrt.api import BlockData, default_partitioner
from repro.localrt.engine import JobRunState, absorb_map_result, run_reduce
from repro.localrt.jobs import (
    PatternWordCountBlock,
    ScanSums,
    SelectionBlockMapper,
    _key_codes,
    selection_job,
    wordcount_job,
)
from repro.localrt.output import write_output
from repro.localrt.runners import SharedScanRunner
from repro.localrt.storage import BlockStore
from repro.workloads.text import TextCorpusGenerator


def _ids(encoded):
    """An encoded block's ids, as a tuple."""
    return tuple(encoded.ids.tolist())


def _decoded(encoded):
    """The words an encoded block's ids stand for, via its dictionary."""
    return tuple(encoded.dictionary.words[i] for i in _ids(encoded))


# ------------------------------------------------------------------ encoding

def test_encode_assigns_each_word_one_dense_id():
    views = tokens.DerivedViews()
    first = views.encode(Counter("b a b c".split()))
    second = views.encode(Counter("c d a".split()))
    assert (_decoded(first), first.counts.tolist()) == (
        ("b", "a", "c"), [2, 1, 1])
    assert first.total == 4
    assert _ids(first) == (0, 1, 2)
    assert _ids(second) == (2, 3, 1)  # known words keep their ids
    assert second.dictionary is first.dictionary
    assert _decoded(second) == ("c", "d", "a")
    assert len(views._dictionary.words) == 4


@pytest.mark.parametrize("text", ["", "one", "one two", "a b c d e"])
def test_ids_and_verdicts_have_one_shape_for_any_number_of_words(text):
    """``itemgetter`` answers a bare item for one key and refuses none;
    the encoded view's arrays and a rider's verdicts hide both."""
    views = tokens.DerivedViews()
    views.encode(Counter("pad the ids so they are not 0..n".split()))
    encoded = views.encode(Counter(text.split()))
    words = text.split()
    assert encoded.ids.shape == encoded.counts.shape == (len(words),)
    assert _decoded(encoded) == tuple(words)
    hits = encoded.dictionary.matches(encoded.ids, "^o",
                                      re.compile("^o").match)
    assert hits.tolist() == [word.startswith("o") for word in words]


def test_verdicts_match_each_word_once_per_pattern():
    views = tokens.DerivedViews()
    asked = []

    def match(word):
        asked.append(word)
        return re.match("^t", word)

    first = views.encode(Counter("the cat".split()))
    assert first.dictionary.matches(first.ids, "^t",
                                    match).tolist() == [True, False]
    assert asked == ["the", "cat"]
    vector = first.dictionary.verdicts["^t"]
    second = views.encode(Counter("cat tom the".split()))
    assert second.dictionary.matches(second.ids, "^t",
                                     match).tolist() == [False, True, True]
    # One array per (dictionary, pattern), extended and never redone:
    # a longer array replaces it, and the one a reader holds is as it was.
    extended = second.dictionary.verdicts["^t"]
    assert extended is not vector and vector.tolist() == [True, False]
    assert extended.tolist() == [True, False, True]
    assert asked == ["the", "cat", "tom"]
    assert first.dictionary.matches(first.ids, "^t",
                                    match).tolist() == [
        True, False]  # ids still valid
    assert asked == ["the", "cat", "tom"]


class _CountingMatch:
    """``re.compile(pattern).match`` that counts its calls."""

    def __init__(self, pattern):
        self._match = re.compile(pattern).match
        self.calls = 0

    def __call__(self, word):
        self.calls += 1
        return self._match(word)


def test_more_patterns_than_the_table_holds_never_thrash_it(monkeypatch):
    """One pattern more than the cap cycles over a scan: the vectors in
    use stay, and the rider without one matches each block's own words —
    no rider ever matches more than the block's vocabulary on a block,
    let alone the whole dictionary again."""
    cap = 3
    monkeypatch.setattr(tokens, "VERDICT_PATTERNS_CAP", cap)
    views = tokens.DerivedViews()
    vocabulary = [f"{letter}{i}" for letter in "abcd" for i in range(30)]
    views.encode(Counter(vocabulary))  # the dictionary is far wider ...
    blocks = [vocabulary[lo::12] for lo in range(12)]  # ... than a block
    matchers = {f"^{letter}": _CountingMatch(f"^{letter}")
                for letter in "abcd"}
    assert len(matchers) == cap + 1
    for lap in range(2):
        for words in blocks:
            encoded = views.encode(Counter(words))
            for pattern, match in matchers.items():
                before = match.calls
                selected = encoded.dictionary.matches(encoded.ids,
                                                      pattern, match)
                assert selected.tolist() == [w.startswith(pattern[1])
                                             for w in words]
                if (lap, words) != (0, blocks[0]):  # vectors built there
                    assert match.calls - before <= len(words)
            assert list(encoded.dictionary.verdicts) == ["^a", "^b", "^c"]
    # The three with a vector matched each dictionary word once, ever;
    # the fourth matched each block's words, every time.
    assert [m.calls for m in matchers.values()] == [120, 120, 120, 2 * 120]


def test_full_verdict_table_drops_only_an_idle_vector(monkeypatch):
    monkeypatch.setattr(tokens, "VERDICT_PATTERNS_CAP", 2)
    monkeypatch.setattr(tokens, "VERDICT_IDLE_BLOCKS", 3)
    views = tokens.DerivedViews()
    counts = Counter(["aa", "bb"])

    def ride(*patterns):
        encoded = views.encode(counts)
        for pattern in patterns:
            assert encoded.dictionary.matches(
                encoded.ids, pattern, re.compile(pattern).match,
            ).tolist() == [pattern == "^a", pattern == "^b"]
        table = encoded.dictionary.verdicts
        assert len(table) <= 2 and set(table) == set(encoded.dictionary.used)
        return sorted(table)

    assert ride("^a", "^b", "^c") == ["^a", "^b"]  # both in use: ^c waits
    assert ride("^b", "^c") == ["^a", "^b"]  # ^a sat out one block ...
    assert ride("^b", "^c") == ["^a", "^b"]  # ... two ...
    assert ride("^b", "^c") == ["^b", "^c"]  # ... three: idle, replaced
    assert ride("^a", "^b", "^c") == ["^b", "^c"]  # and now ^a waits


def test_idle_clock_runs_on_blocks_served_from_a_warm_table(monkeypatch):
    """Once every block is a table hit nothing is encoded any more; the
    clock a full verdict table reads must still advance, or no vector
    ever looks idle and a new pattern matches uncached for ever."""
    monkeypatch.setattr(tokens, "VERDICT_PATTERNS_CAP", 2)
    monkeypatch.setattr(tokens, "VERDICT_IDLE_BLOCKS", 3)
    views = tokens.DerivedViews()
    blocks = [b"aa bb\n", b"bb cc\n"]
    matchers = {pattern: _CountingMatch(pattern)
                for pattern in ("^a", "^b", "^c")}

    def lap(*patterns):
        for index, raw in enumerate(blocks):
            encoded = BlockData(raw).bind(views, index).encoded()
            for pattern in patterns:
                assert encoded.dictionary.matches(
                    encoded.ids, pattern, matchers[pattern]).tolist() == [
                        word.startswith(pattern[1])
                        for word in _decoded(encoded)]
        return sorted(encoded.dictionary.verdicts)

    assert lap("^a", "^b") == ["^a", "^b"]  # cold: both blocks encoded
    assert views.stats()["admitted"] == 2
    encodes = []
    original = tokens.DerivedViews.encode
    monkeypatch.setattr(
        tokens.DerivedViews, "encode",
        lambda self, *args: encodes.append(args) or original(self, *args))
    # ^a's job is gone; ^c arrives at a full table, every block warm.
    assert lap("^b", "^c") == ["^a", "^b"]  # ^a idle for 2 blocks: ^c waits
    uncached = matchers["^c"].calls
    assert uncached == 4  # each block's own words, nothing kept
    assert lap("^b", "^c") == ["^b", "^c"]  # 3 blocks idle: replaced
    vectored = matchers["^c"].calls
    assert lap("^b", "^c") == ["^b", "^c"]
    assert matchers["^c"].calls == vectored  # match is not called again
    assert not encodes and views.stats()["hits"] == 6


class _CountingRegex:
    """A compiled pattern whose ``match`` counts its calls."""

    def __init__(self, pattern):
        self.match = _CountingMatch(pattern)


def test_a_riding_patterns_vector_outlives_a_long_scan_at_a_full_table(
        tmp_path, monkeypatch):
    """A wave marks the vector of every pattern riding it used, once per
    wave, although nothing is matched before the reduce.  With the table
    capped at two and three patterns riding, ``^a``'s vector — made by
    an earlier job — survives the scan of a job that rides with it for
    longer than ``VERDICT_IDLE_BLOCKS``: the reduces of ``^b`` and
    ``^c``, which finish during that scan, find it in use, and ``^a``'s
    own reduce matches no word again."""
    monkeypatch.setattr(tokens, "VERDICT_PATTERNS_CAP", 2)
    blocks = tokens.VERDICT_IDLE_BLOCKS + 16
    store = BlockStore.create(
        tmp_path / "s", [f"a{i} b{i} c{i}" for i in range(blocks)], 8)
    assert store.num_blocks == blocks
    config = ExecutionConfig(blocks_per_segment=4)
    SharedScanRunner(store, config).run([wordcount_job("warm", "^a")])
    dictionary = store.derived.lookup(0, tokens.ENCODED_VIEW).dictionary
    vector = dictionary.verdicts["^a"]
    assert len(vector) == len(dictionary.words)
    jobs = [wordcount_job(job_id, f"^{job_id}") for job_id in "bca"]
    for job in jobs:
        job.mapper._regex = _CountingRegex(job.mapper.pattern)
    # ^a joins four waves in, long before its vector could look idle,
    # and is still scanning when ^b and ^c reduce.
    report = SharedScanRunner(store, config).run(jobs, {"a": 4})
    assert dictionary.verdicts["^a"] is vector
    assert jobs[2].mapper._regex.match.calls == 0
    assert len(report.result("a").output) == blocks


def test_wave_sums_are_the_blocks_summed_and_riders_add_them():
    """A wave's sums are dense when its blocks hold one id per
    ``WAVE_DENSE_SHARE`` slots of their span and list their ids
    otherwise; either way they are the blocks' counts summed, with how
    many blocks hold each word.  A scan's running sums grow to take
    them, a rider that joined after the first wave settles the
    difference, and settling keeps the matching words' totals, in reduce
    order, their block presence and their sum."""
    views = tokens.DerivedViews()
    views.encode(Counter(f"pad{i}" for i in range(64)))
    scan = ScanSums()
    early = JobRunState(wordcount_job("early", "^[yz]$"))
    late = JobRunState(wordcount_job("late", "^[yz]$", num_partitions=2))
    expected, presence = Counter(), Counter()

    def add(riders, *blocks, book=True):
        sums, = tokens.WaveSums.of(blocks)
        ids = [block.ids.tolist() for block in blocks]
        span = max(map(max, ids)) + 1
        assert sums.span == span
        assert (sums.ids is None) == (
            sum(map(len, ids)) * tokens.WAVE_DENSE_SHARE >= span)
        summed = Counter()
        for block in blocks:
            summed.update(dict(zip(block.ids.tolist(),
                                   block.counts.tolist())))
            if book:
                presence.update(block.ids.tolist())
        at = range(span) if sums.ids is None else sums.ids.tolist()
        assert {i: t for i, t in zip(at, sums.pair[0].tolist()) if t} \
            == dict(summed)
        if book:
            expected.update(summed)
        PatternWordCountBlock.absorb_wave([(blocks, riders)], scan)

    first = views.encode(Counter("x y y z".split()))
    add([early], first, views.encode(Counter("y z z z".split())),
        book=False)  # sparse, before ``late`` joins
    add([early, late], views.encode(Counter(f"pad{i}"
                                            for i in range(0, 64, 2))))
    dictionary = first.dictionary
    running = scan.running
    assert running.dictionary is dictionary
    assert running.pair.shape[1] == len(dictionary.words)
    add([early, late], views.encode(Counter("x y y z late".split())))
    assert running.pair.shape[1] == len(dictionary.words) == 68
    assert running.waves == 3
    assert late.pending.base.shape[1] == 67  # where the sums stood
    late.settle()
    assert not late.pending
    ids, totals = late.sums[dictionary]
    words = [dictionary.words[i] for i in ids.tolist()]
    assert dict(zip(words, totals.tolist())) == {"y": 2, "z": 1}
    assert words == sorted(words, key=lambda word: (
        default_partitioner(word, 2), repr(word)))
    assert late.counters.value("wordcount", "words_matched") == 3
    assert late.map_output_records == late.summed_records == 2
    # (encoded with no line count, as no store visit would)
    assert (late.map_tasks, late.map_input_records) == (2, 0)
    assert {dictionary.words[i]: t for i, t in expected.items()} == {
        **{f"pad{i}": 1 for i in range(0, 64, 2)},
        "x": 1, "y": 2, "z": 1, "late": 1}
    early.settle()
    ids, totals = early.sums[dictionary]
    assert dict(zip([dictionary.words[i] for i in ids.tolist()],
                    totals.tolist())) == {"y": 5, "z": 5}
    assert early.counters.value("wordcount", "words_matched") == 10
    # each in three blocks
    assert early.map_output_records == early.summed_records == 6


# ------------------------------------------------------------ wave-sums memo

def _lap(views, texts):
    """One lap over ``texts``: each block bound to ``views``, encoded."""
    return [BlockData(text).bind(views, index).encoded()
            for index, text in enumerate(texts)]


def test_a_warm_chunk_is_summed_once():
    """A second lap meets the same kept views, and the first block's
    memo hands back the same sums; each group length has a slot of its
    own, and a block derived again is a new object the memo misses."""
    views = tokens.DerivedViews()
    texts = [b"apple ant\n", b"bee ant cow\n"]
    first = _lap(views, texts)
    sums = tokens.WaveSums.of(first)
    second = _lap(views, texts)
    assert all(map(lambda a, b: a is b, first, second))
    assert tokens.WaveSums.of(second) is sums
    head = tokens.WaveSums.of(second[:1])
    assert head is not sums and tokens.WaveSums.of(first[:1]) is head
    assert tokens.WaveSums.of(second) is sums
    # Derived again, against the same dictionary, and not kept.
    fresh = views.encode(BlockData(texts[1]).token_counts())
    again = tokens.WaveSums.of([first[0], fresh])
    assert again is not sums
    (kept,), (summed,) = sums, again
    assert kept.ids is None and summed.ids is None
    assert kept.pair.tolist() == summed.pair.tolist() == [[1, 2, 1, 1]] * 2


def test_wave_sums_memo_misses_after_a_roll_over(monkeypatch):
    """A roll-over drops every encoded view its table kept, so the next
    lap's blocks are new objects, encoded against the new dictionary:
    the memo misses."""
    monkeypatch.setattr(tokens, "TOKEN_DICTIONARY_CAP", 6)
    views = tokens.DerivedViews()
    views.encode(Counter("x y z".split()))
    texts = [b"a b\n", b"b c\n"]
    first = _lap(views, texts)  # the dictionary is full
    sums = tokens.WaveSums.of(first)
    views.encode(Counter(["d"]))  # a 7th word: roll
    second = _lap(views, texts)
    assert second[0] is not first[0]
    again = tokens.WaveSums.of(second)
    assert again is not sums
    assert again[0].dictionary is not sums[0].dictionary
    assert tokens.WaveSums.of(_lap(views, texts)) is again


def test_memoised_sums_are_read_only():
    """Dense or sparse, the arrays every later lap's riders share cannot
    be written through."""
    views = tokens.DerivedViews()
    dense = tokens.WaveSums.of([views.encode(Counter("a b a".split()))])
    views.encode(Counter(f"pad{i}" for i in range(64)))
    sparse = tokens.WaveSums.of([views.encode(Counter(["z"]))])
    assert dense[0].ids is None and sparse[0].ids is not None
    for sums in (dense[0], sparse[0]):
        _raises_on_write(sums.pair)
    _raises_on_write(sparse[0].ids)


# ----------------------------------------------------------------- roll-over

def test_roll_over_replaces_the_dictionary_and_never_passes_the_cap(
        monkeypatch):
    monkeypatch.setattr(tokens, "TOKEN_DICTIONARY_CAP", 5)
    views = tokens.DerivedViews()
    old = views.encode(Counter("a b c".split()))
    same = views.encode(Counter("c d e".split()))  # 5 words: fits
    assert same.dictionary is old.dictionary
    assert len(views._dictionary.words) == 5
    rolled = views.encode(Counter("e f".split()))  # a 6th word: roll
    assert rolled.dictionary is not old.dictionary
    assert _ids(rolled) == (0, 1) and len(views._dictionary.words) == 2
    # The in-flight block still reads its own dictionary, untouched.
    assert _decoded(old) == ("a", "b", "c")
    assert len(old.dictionary.words) == 5
    assert views.encode(Counter(["f"])).dictionary is rolled.dictionary


def test_block_wider_than_the_cap_gets_a_dictionary_of_its_own(monkeypatch):
    monkeypatch.setattr(tokens, "TOKEN_DICTIONARY_CAP", 3)
    views = tokens.DerivedViews()
    shared = views.encode(Counter("a b".split()))
    wide = views.encode(Counter("a b c d e".split()))
    assert wide.dictionary is not shared.dictionary
    assert _decoded(wide) == ("a", "b", "c", "d", "e")
    assert len(views._dictionary.words) == 2  # the shared one is as it was
    assert views.encode(Counter(["b"])).dictionary is shared.dictionary


def test_rolled_over_dictionary_is_collectable(monkeypatch):
    monkeypatch.setattr(tokens, "TOKEN_DICTIONARY_CAP", 2)
    views = tokens.DerivedViews()
    in_flight = views.encode(Counter("a b".split()))
    in_flight.dictionary.matches(in_flight.ids, "^a", re.compile("^a").match)
    old = weakref.ref(in_flight.dictionary)
    views.encode(Counter(["c"]))  # rolls over
    gc.collect()
    assert old() is not None  # the in-flight block keeps it alive
    del in_flight
    gc.collect()
    assert old() is None


def _corpus_store(tmp_path):
    lines = list(TextCorpusGenerator(vocabulary_size=60, seed=11).lines(6_000))
    return BlockStore.create(tmp_path / "corpus", lines, block_size_bytes=400)


def _scan(store, backend, out_root):
    """Three jobs joining a circular scan at different iterations; every
    observable of the run, part files as bytes."""
    jobs = [wordcount_job("early", ".*a$"),
            wordcount_job("late", "^[bcd].*"),
            wordcount_job("loose", ".*e.*", use_combiner=False)]
    before = store.stats_snapshot()
    config = ExecutionConfig(blocks_per_segment=2, map_backend=backend,
                             map_workers=2)
    with SharedScanRunner(store, config) as runner:
        report = runner.run(jobs, {"late": 2, "loose": 5})
    parts = {}
    for job_id, result in sorted(report.results.items()):
        for path in write_output(result, out_root / backend / job_id):
            parts[(job_id, path.name)] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    stats = store.stats_snapshot().delta(before)
    return (parts,
            {job_id: list(result.counters)
             for job_id, result in report.results.items()},
            (stats.blocks_read, stats.bytes_read))


def test_roll_over_mid_scan_changes_nothing_observable(tmp_path, monkeypatch):
    """With room for only a handful of words the dictionary rolls over
    again and again while three jobs ride one circular scan; outputs,
    counters and logical reads equal the uncapped run's under every
    ``map_backend`` name, each on a fresh handle, and the handle's
    dictionary never passes its cap."""
    store = _corpus_store(tmp_path)
    reference = _scan(store, "serial", tmp_path / "reference")

    cap = 40
    monkeypatch.setattr(tokens, "TOKEN_DICTIONARY_CAP", cap)
    generations = []  # strong references: ids of dead ones get reused
    sizes = []
    original = tokens.DerivedViews.encode

    def spying(self, *args):
        encoded = original(self, *args)
        if encoded.dictionary not in generations:
            generations.append(encoded.dictionary)
        sizes.append(len(self._dictionary.words))
        return encoded

    monkeypatch.setattr(tokens.DerivedViews, "encode", spying)
    for backend in MAP_BACKENDS:
        assert _scan(BlockStore(store.directory), backend,
                     tmp_path / "capped") == reference, backend
    assert len(generations) > 2
    assert max(sizes) <= cap
    assert all(len(dictionary.words) <= cap for dictionary in generations)


# ------------------------------------------------------------------- threads

def test_concurrent_encoders_assign_each_word_exactly_one_id():
    """Four threads encode overlapping vocabularies at once (more
    threads than cores, a switch interval that interleaves them inside
    ``encode``): a lost update would give a word two ids or an id two
    words."""
    views = tokens.DerivedViews()
    vocabulary = [f"w{i}" for i in range(400)]
    seen = [[] for _ in range(4)]
    start = threading.Barrier(4)

    def work(k):
        start.wait(timeout=10)
        for round_ in range(60):
            lo = (k * 50 + round_ * 7) % 300
            encoded = views.encode(Counter(vocabulary[lo:lo + 100]))
            seen[k].append((encoded, encoded.dictionary.matches(
                encoded.ids, "5$", re.compile(".*5$").match).tolist()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    dictionary = seen[0][0][0].dictionary
    assert sorted(dictionary.ids.values()) == list(range(len(dictionary.ids)))
    assert [dictionary.ids[word] for word in dictionary.words] \
        == list(range(len(dictionary.words)))
    for per_thread in seen:
        assert len(per_thread) == 60
        for encoded, hits in per_thread:
            assert encoded.dictionary is dictionary
            words = _decoded(encoded)
            assert list(hits) == [word.endswith("5") for word in words]


def test_process_encoder_is_shared_by_every_block():
    """The process keeps one encoding table, for blocks in hand: every
    unbound ``BlockData`` encodes against it and no store handle reads
    it, so blocks in hand of different jobs and calls share ids and
    verdicts, and none of them is kept as a block's view."""
    first = BlockData(b"shared-token-x other\n").encoded()
    second = BlockData(b"shared-token-x\n").encoded()
    assert first.dictionary is second.dictionary
    assert first.dictionary is tokens.UNBOUND._dictionary
    assert _ids(second)[0] == _ids(first)[0]
    assert tokens.UNBOUND.stats()["resident_blocks"] == 0


# ------------------------------------------------------------- read-only views

def _raises_on_write(array):
    with pytest.raises(ValueError, match="read-only"):
        array[0] = array[0]


def test_shared_arrays_are_read_only_and_the_kernels_still_work():
    """What a kept view hands every rider cannot be written through; the
    kernel's gathers and masks and the wave's sums make arrays of their
    own, and a job's own accumulators stay writable."""
    views = tokens.DerivedViews()
    text = BlockData(b"apple ant bee\nant cow\n").bind(views, 0)
    encoded = text.encoded()
    _raises_on_write(encoded.ids)
    _raises_on_write(encoded.counts)
    state = JobRunState(wordcount_job("wc", "^a"))
    for _visit in range(2):  # the second is served from the table
        block = BlockData(text.raw()).bind(views, 0)
        count, records, _ = PatternWordCountBlock("^a").map_block(block, 0)
        assert (count, records) == (2, [("apple", 1), ("ant", 2)])
        assert block.encoded() is encoded
        PatternWordCountBlock.absorb_wave([([encoded], [state])])
        state.settle()  # the second adds to the first's accumulator
    _raises_on_write(encoded.dictionary.verdicts["^a"])
    (ids, totals), = state.sums.values()
    assert ids.flags.writeable and totals.flags.writeable
    assert sorted(run_reduce(state)) == [("ant", 4), ("apple", 2)]

    rows = BlockData(b"".join(
        b"|".join([b"%d" % order, b"1", b"1", b"1", b"%d" % quantity]
                  + [b"x"] * 11) + b"\n"
        for order, quantity in ((3, 1), (1, 9), (2, 2)))).bind(views, 1)
    count, selected, _ = SelectionBlockMapper(5.0).map_block(rows, 0)
    assert [key for key, _ in selected] == [(3, 1), (2, 1)]
    column, = (value for key, value in rows._derived.items()
               if key[0] == "quantities")
    for array in column:
        _raises_on_write(array)
    selected.order[0] = selected.order[0]  # a gather: the rider's own
    state = JobRunState(selection_job("sel", 5.0, num_partitions=1))
    absorb_map_result(state, count, selected, None)
    assert run_reduce(state) == [selected.records[1], selected.records[0]]


def test_riders_racing_on_one_row_table_get_their_own_rows_codes():
    """Four selection riders (more threads than cores, a switch interval
    that interleaves them inside ``keep``) map one block at once, round
    after round on a fresh table, two by two at thresholds wider than
    the table's budget: every rider's codes are its own records' —
    whether it gathered a row another rider kept, or parsed it itself."""
    data = b"".join(
        b"|".join([b"%d" % (row * 37 % 101), b"1", b"1", b"%d" % (row % 7),
                   b"%d" % (row % 50 + 1)] + [b"x"] * 11) + b"\n"
        for row in range(200))
    rounds = [tokens.DerivedViews() for _ in range(50)]
    outputs = [[] for _ in range(4)]
    start = threading.Barrier(4)

    def work(k):
        mapper = SelectionBlockMapper(20.0 * (k // 2 + 1))
        start.wait(timeout=10)
        for views in rounds:
            _count, partial, _ = mapper.map_block(
                BlockData(data).bind(views, 0), 0)
            outputs[k].append(partial)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    for partials in outputs:
        assert len(partials) == len(rounds)
        for partial in partials:
            hashes, order = _key_codes(partial.records)
            assert partial.hashes.tolist() == hashes.tolist()
            assert partial.order.tolist() == order.tolist()


def test_a_row_table_writes_a_rows_codes_before_its_slot_fills():
    """What lets a rider that finds a slot filled gather the row's codes
    without the lock: by the time ``keep`` takes a record for its slot,
    the codes it was offered with are in place — and no row's kept flag
    is raised before every slot ``keep`` fills is written, so a rider
    that reads the flags first never finds a flagged slot empty."""
    table = tokens.RowTable(2, 10 ** 6)

    def records():
        for row in (0, 1):
            assert (table.hashes[row], table.order[row]) == (row + 5, row + 9)
            assert not table.kept.any()
            yield ("record", row)

    table.keep([0, 1], [1, 1], records(), (np.array([5, 6]), np.array([9, 10])))
    assert table.slots.tolist() == [("record", 0), ("record", 1)]
    assert table.kept.tolist() == [True, True] and table.ordered
    table.keep([0], [1], [("record", 0)])  # offered without codes
    assert not table.ordered
