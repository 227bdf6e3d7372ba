"""Property: a summing wordcount job's id-space shuffle changes nothing
observable.

A batched wordcount rider whose reducer and combiner both sum is not
mapped block by block on a map wave: the wave sums the raw counts of the
blocks its summing riders rode once and adds them to the scan's running
sums once (``ScanSums``); a rider's raw totals are the running sums less
where they stood when it joined, and its pattern is applied once, when
its shuffle is read (``JobRunState.settle``).  For any rider set, arrival iterations and
cancellation, in each of the cases where that is easiest to get wrong —
a dictionary roll-over inside one wave, an over-wide block with a
dictionary of its own, a verdict table too full to keep a rider's
pattern, and the progressive fold of ``fold_partial_aggregates`` — the
run must produce the outputs, counters, record counts,
``reduce_input_values`` and logical ``ReadStats`` of the same plan with
per-record mappers, which load every block they visit; the summing
riders' warm visits are served by the store handle's derived-view table
instead (``view_blocks_read``), so the run never reads the disk more
often, and every visit is one or the other.  Each case also checks that
it really happened.

A wave is one merged sub-job: every rider of it rides every block of
it.  Both properties drive the scan core's waves (``core.run``); the
second does so on a segment size that does not divide the block count,
and holds every run to a solo per-record FIFO run.

A job's shuffle is settled in the order its reduce emits it — the
dictionary's reduce order for its partition count
(``TokenDictionary.order``), built from the per-word codes
(``TokenDictionary.codes``) — so the corpus holds words whose ``repr``
order is not their ``str`` order, and the jobs draw their partition
count.
"""

import dataclasses
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.localrt.engine as engine
import repro.localrt.tokens as tokens
from repro.common.config import ExecutionConfig
from repro.common.errors import ExecutionError
from repro.ext.aggregation import fold_partial_aggregates
from repro.localrt.api import BlockData, default_partitioner
from repro.localrt.engine import (
    JobRunState,
    absorb_map_result,
    collect_map_outputs,
    count_pending_values,
    run_reduce,
)
from repro.localrt.jobs import PatternWordCountBlock, ScanSums, wordcount_job
from repro.localrt.live import SharedScanCore
from repro.localrt.parallel import execute_map_wave
from repro.localrt.records import TextLineReader
from repro.localrt.runners import FifoLocalRunner
from repro.localrt.storage import BlockStore
from repro.localrt.tokens import DerivedViews, TokenDictionary

#: Words whose ``repr`` sorts them otherwise than ``str`` does: ``'a'``
#: follows ``'a!'``, ``"don't"`` is double-quoted, a backslash doubles.
ODD_WORDS = ["a", "a!", "a#", "a&", "don't", 'say"', "back\\slash", "é",
             "naïve"]
WORDS = [stem + suffix for stem in ("th", "run", "eat", "app", "mot", "sad")
         for suffix in ("e", "ing", "ed", "le", "ion", "s", "")] + ODD_WORDS
PATTERNS = ["^th.*", ".*ing$", ".*e.*", "^[aeiou].*", ".*[^a-z].*"]
#: Lines of three distinct words, twelve words in all: with them a
#: corpus holds more words than a dictionary capped at eight, and every
#: block holding one is wider than a dictionary capped at two.
SEED_LINES = [" ".join(WORDS[i:i + 3]) for i in range(0, 12, 3)]

#: case -> (patched ``tokens`` caps, block size range in bytes, blocks
#: per segment range).  Blocks of at most 24 bytes hold one or two seed
#: lines, so under a cap of eight the dictionary rolls over at block 1
#: or 2 — inside the first wave, which covers blocks 0-2 (the first job
#: is admitted at block 0).  A block of the short odd words may
#: be over-wide: either way a job's shuffle spans two dictionaries.
CASES = {
    "roll-over": ({"TOKEN_DICTIONARY_CAP": 8}, (8, 24), (3, 3)),
    "over-wide": ({"TOKEN_DICTIONARY_CAP": 2}, (8, 60), (1, 3)),
    "full-verdict-table": ({"VERDICT_PATTERNS_CAP": 1}, (8, 60), (1, 3)),
    "fold": ({}, (8, 60), (1, 3)),
}

corpora = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join),
    min_size=2, max_size=16)
#: (pattern, combiner, arrival); the first rider always sums, so every
#: example has a job that keeps its shuffle in id space, and two in
#: three of the others sum too, so a wave often holds summing riders
#: that finish beside summing riders that do not.
riders = st.lists(
    st.tuples(st.sampled_from(PATTERNS), st.sampled_from((True, True, False)),
              st.integers(0, 6)),
    min_size=0, max_size=3)


def _run(directory, rider_set, seg, laps, parts, batched, fold, cancel):
    """``laps`` scans of the rider set on one store handle, with the job
    ``j{cancel[0]}`` cancelled before iteration ``cancel[1]`` plans:
    what each exposes to a caller."""
    store = BlockStore(directory)
    jobs_arrivals = [
        (wordcount_job(f"j{i}", pattern, num_partitions=parts,
                       use_combiner=combiner, batched=batched), arrival)
        for i, (pattern, combiner, arrival) in enumerate(rider_set)]
    seen = []
    for _ in range(laps):
        before = store.stats_snapshot()
        results = {}
        pending = {}
        for job, arrival in jobs_arrivals:
            pending.setdefault(arrival, []).append(job)
        with SharedScanCore(store, ExecutionConfig(
                blocks_per_segment=seg)) as core:
            iteration = 0
            while pending or core.has_work():
                if not core.has_work() and iteration not in pending:
                    iteration = min(pending)
                for job in pending.pop(iteration, ()):
                    core.add_job(job, arrival=iteration)
                if cancel is not None and cancel[1] == iteration:
                    core.cancel(f"j{cancel[0]}")
                wave = core.plan(iteration)
                if wave is not None:
                    core.run(wave)
                    if fold:
                        fold_partial_aggregates(list(wave.riders))
                    for state in wave.finishing:
                        results[state.job.job_id] = core.finish(state,
                                                                iteration)
                iteration += 1
        reads = store.stats_snapshot().delta(before)
        seen.append((
            {job_id: (repr(result.output), list(result.counters),
                      result.map_input_records, result.map_output_records,
                      result.reduce_output_records,
                      result.reduce_input_values)
             for job_id, result in sorted(results.items())},
            {field: value for field, value in dataclasses.asdict(reads).items()
             if field not in ("physical_blocks_read", "physical_bytes_read",
                              "mmap_blocks_read", "view_blocks_read")},
            reads.physical_blocks_read, reads.view_blocks_read))
    return seen


@pytest.mark.parametrize("case", sorted(CASES))
@given(data=st.data(), corpus=corpora, laps=st.integers(1, 2),
       parts=st.integers(1, 8),
       first=st.tuples(st.sampled_from(PATTERNS), st.integers(0, 6)),
       others=riders)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_id_space_shuffle_matches_per_record(tmp_path_factory, case, data,
                                             corpus, laps, parts, first,
                                             others):
    caps, (smallest, largest), (fewest, most) = CASES[case]
    block_size = data.draw(st.integers(smallest, largest), label="block")
    seg = data.draw(st.integers(fewest, most), label="seg")
    # One of ``others`` may be cancelled before some iteration plans.
    cancel = data.draw(st.none() | st.tuples(
        st.integers(1, len(others)), st.integers(0, 8)), label="cancel") \
        if others else None
    rider_set = [(first[0], True, first[1]), *others]
    if case == "full-verdict-table":
        # A second pattern riding while the first's array is in use.
        second = next(p for p in PATTERNS if p != first[0])
        rider_set.append((second, True, data.draw(st.integers(0, 6))))
    directory = tmp_path_factory.mktemp("idspace-corpus")
    BlockStore.create(directory, SEED_LINES + corpus,
                      block_size_bytes=block_size)

    waves = []  # per wave: the dictionaries of its summed blocks
    refused = []  # patterns the verdict table had no room for
    sorted_ids = []  # settles that read a dictionary's reduce order
    absorb_wave = PatternWordCountBlock.absorb_wave
    vector = TokenDictionary._vector
    order = TokenDictionary._order

    def recording_absorb_wave(blocks, riders, scan=None):
        absorb_wave(blocks, riders, scan)
        waves.append({block.dictionary for block in blocks})

    def recording_vector(self, pattern):
        kept = vector(self, pattern)
        if kept is None:
            refused.append(pattern)
        return kept

    def recording_order(self, num_partitions, last):
        sorted_ids.append(self)
        return order(self, num_partitions, last)

    with pytest.MonkeyPatch.context() as patch:
        for name, value in caps.items():
            patch.setattr(tokens, name, value)
        patch.setattr(PatternWordCountBlock, "absorb_wave",
                      staticmethod(recording_absorb_wave))
        patch.setattr(TokenDictionary, "_vector", recording_vector)
        patch.setattr(TokenDictionary, "_order", recording_order)
        fold = case == "fold"
        run = (directory, rider_set, seg, laps, parts)
        batched = _run(*run, True, fold, cancel)
        per_record = _run(*run, False, fold, cancel)

    assert [lap[:2] for lap in batched] == [lap[:2] for lap in per_record]
    for (_, logical, physical, served), (_, _, oracle, none_served) in zip(
            batched, per_record):
        assert (oracle, none_served) == (logical["blocks_read"], 0)
        assert physical + served == logical["blocks_read"]
    assert waves
    cap = caps.get("TOKEN_DICTIONARY_CAP", tokens.TOKEN_DICTIONARY_CAP)
    if case == "roll-over":  # one wave's blocks span two dictionaries
        assert max(map(len, waves)) >= 2
    if case == "over-wide":
        assert any(len(d.words) > cap for summed in waves for d in summed)
    if case == "full-verdict-table":
        assert refused
        assert sorted_ids  # nothing rolls over: every summing job orders ids


@given(words=st.lists(st.text(min_size=1, max_size=6) | st.sampled_from(WORDS),
                      min_size=1, max_size=40, unique=True),
       data=st.data(), parts=st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_codes_partition_like_the_partitioner_and_rank_like_sort_key(
        words, data, parts):
    """For any words, met over two blocks: ``digests % P`` is each word's
    ``default_partitioner`` partition, and ordering the ids by ``rank``
    orders their words by ``_sort_key``."""
    cut = data.draw(st.integers(0, len(words)), label="first block")
    views = DerivedViews()
    dictionary = views.encode(Counter(words[:cut] or words)).dictionary
    if cut:
        dictionary.codes(cut - 1)  # digests the first block's words
        views.encode(Counter(words[cut:]))
    digests, rank = dictionary.codes(len(words) - 1)
    assert [digest % parts for digest in digests.tolist()] == [
        default_partitioner(word, parts) for word in dictionary.words]
    ordered = sorted(range(len(words)), key=rank.__getitem__)
    assert [dictionary.words[i] for i in ordered] == sorted(
        words, key=engine._sort_key)


def _reduce_one(views, text, parts=3, pattern="^a"):
    """One summing job over one block encoded in ``views``: its output
    and the block's dictionary."""
    state = JobRunState(wordcount_job("wc", pattern, num_partitions=parts))
    encoded = views.encode(BlockData(text).token_counts())
    PatternWordCountBlock.absorb_wave([encoded], [state])
    return run_reduce(state), encoded.dictionary


def _in_reduce_order(output, parts):
    return output == sorted(output, key=lambda record: (
        default_partitioner(record[0], parts), engine._sort_key(record[0])))


def test_a_dictionary_that_does_not_grow_is_ranked_once():
    """Reduces against a dictionary that has stopped growing read the
    reduce order, its pattern's ids of it and the codes they find; once
    the dictionary grows between two reduces, the next one extends the
    order over the new words."""
    views = DerivedViews()
    output, dictionary = _reduce_one(views, b"ant apple\nbee a!\n")
    ordered, ranked = dictionary.orders[3], dictionary.rank
    matching = dictionary.matching["^a", 3][2]
    assert len(ordered) == len(ranked) == 4
    assert [dictionary.words[i] for i in matching.tolist()] == [
        word for word, _ in output]  # every "^a" word is in the block
    for _ in range(5):
        assert _reduce_one(views, b"apple bee\na! ant\n") == (
            output, dictionary)
    assert dictionary.orders[3] is ordered and dictionary.rank is ranked
    assert dictionary.matching["^a", 3][2] is matching

    grown, _ = _reduce_one(views, b"cow ant\naardvark\n")  # ids 4 and 5
    assert dictionary.orders[3] is not ordered
    assert dictionary.matching["^a", 3][2] is not matching
    assert len(dictionary.orders[3]) == len(dictionary.rank) == 6
    assert grown == [("aardvark", 1), ("ant", 1)] or \
        grown == [("ant", 1), ("aardvark", 1)]
    assert _in_reduce_order(grown, 3)
    assert _in_reduce_order(output, 3)


def test_each_partition_count_has_its_own_order(monkeypatch):
    """Jobs with different partition counts on one dictionary each get
    the order their own reduce emits; a dictionary keeps at most
    ``ORDER_PARTITIONS_CAP`` orders and ``MATCHING_ORDERS_CAP`` pattern
    masks of them, dropping the oldest."""
    views = DerivedViews()
    text = " ".join(WORDS).encode() + b"\n"
    outputs = {parts: _reduce_one(views, text, parts, ".*")[0]
               for parts in (1, 2, 5)}
    dictionary = views.encode(Counter(WORDS)).dictionary
    assert list(dictionary.orders) == [1, 2, 5]
    for parts, output in outputs.items():
        assert sorted(output) == sorted((word, 1) for word in WORDS)
        assert _in_reduce_order(output, parts)
    assert outputs[1] != outputs[2] != outputs[5]
    assert list(dictionary.matching) == [(".*", 1), (".*", 2), (".*", 5)]
    monkeypatch.setattr(tokens, "ORDER_PARTITIONS_CAP", 3)
    monkeypatch.setattr(tokens, "MATCHING_ORDERS_CAP", 2)
    _reduce_one(views, text, 7, ".*")
    assert list(dictionary.orders) == [2, 5, 7]
    assert list(dictionary.matching) == [(".*", 5), (".*", 7)]


def _record_path(store, job, blocks):
    """``job``'s result fields over exactly ``blocks``, each mapped and
    absorbed as a record list (no id space)."""
    state = JobRunState(job)
    reader = TextLineReader()
    for index in blocks:
        count, (records,), (counters,) = collect_map_outputs(
            [job], reader, BlockData(store.read_block_bytes(index)),
            store.block_offset(index))
        absorb_map_result(state, count, records, counters)
    return _fields(state)


def _fields(state):
    reduce_input = count_pending_values(state)
    output = run_reduce(state)
    return (output, state.map_tasks, state.map_input_records,
            state.map_output_records, reduce_input, list(state.counters))


def test_a_rider_sums_exactly_the_blocks_it_rode(tmp_path):
    """On one scan's running sums, a rider that joins late sums the
    blocks of the waves it rode; a rider absent from a wave of the
    running sums it rides raises when it settles; and a rider absent
    from one call of ``execute_map_wave`` (a scan of that wave alone, by
    default) sums the blocks of the calls it was in."""
    lines = [f"the {WORDS[i % len(WORDS)]} {WORDS[(3 * i) % len(WORDS)]} "
             f"th{i % 5}ing" for i in range(60)]
    store = BlockStore.create(tmp_path / "s", lines, 200)
    assert store.num_blocks >= 6
    reader = TextLineReader()
    plan = [(0, 1), (2, 3), (4, 5)]

    def job(name):
        return wordcount_job(name, "^th.*", num_partitions=3)

    scan = ScanSums()
    whole, late, absent = (JobRunState(job(name)) for name in
                           ("whole", "late", "absent"))
    rode = {"whole": [0, 1, 2, 3, 4, 5], "late": [2, 3, 4, 5]}
    for blocks, riders in zip(plan, [(whole, absent), (whole, late),
                                     (whole, late, absent)]):
        execute_map_wave(store, reader, blocks, riders, sums=scan)
    assert late.pending.base is not None  # it joined where the sums stood
    for state in (whole, late):
        assert _fields(state) == _record_path(
            store, job(state.job.job_id), rode[state.job.job_id])
    with pytest.raises(ExecutionError, match="did not ride"):
        absent.settle()

    apart = JobRunState(job("apart"))
    for blocks in (plan[0], plan[2]):
        execute_map_wave(store, reader, blocks, (apart,))
    assert _fields(apart) == _record_path(store, job("apart"), [0, 1, 4, 5])


#: Lines of the running-sums property: three words of ``WORDS`` each.
running_corpora = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join),
    min_size=6, max_size=24)
#: (pattern, kind, arrival): ``sum`` rides the running sums, ``plain``
#: (no combiner) and ``records`` (per-record) are mapped block by block.
running_riders = st.lists(
    st.tuples(st.sampled_from(PATTERNS),
              st.sampled_from(("sum", "sum", "plain", "records")),
              st.integers(0, 6)),
    min_size=0, max_size=4)


def _running_jobs(rider_set, parts, batched):
    return [wordcount_job(f"j{i}", pattern, num_partitions=parts,
                          use_combiner=kind != "plain",
                          batched=batched and kind != "records")
            for i, (pattern, kind, _) in enumerate(rider_set)]


def _scan_laps(directory, rider_set, seg, laps, parts, batched, cancel):
    """``laps`` scans of the rider set through one store handle's
    ``SharedScanCore`` (``core.run``), with ``j{cancel[0]}`` cancelled
    before iteration ``cancel[1]`` plans: each lap's finished jobs'
    result fields and its ``ReadStats``."""
    store = BlockStore(directory)
    seen = []
    for _ in range(laps):
        jobs = _running_jobs(rider_set, parts, batched)
        pending = {}
        for job, (_, _, arrival) in zip(jobs, rider_set):
            pending.setdefault(arrival, []).append(job)
        before = store.stats_snapshot()
        results = {}
        with SharedScanCore(store, ExecutionConfig(
                blocks_per_segment=seg)) as core:
            iteration = 0
            while pending or core.has_work():
                if not core.has_work() and iteration not in pending:
                    iteration = min(pending)
                for job in pending.pop(iteration, ()):
                    core.add_job(job, arrival=iteration)
                if cancel is not None and cancel[1] == iteration:
                    core.cancel(f"j{cancel[0]}")
                wave = core.plan(iteration)
                if wave is not None:
                    core.run(wave)
                    for state in wave.finishing:
                        results[state.job.job_id] = core.finish(state,
                                                                iteration)
                iteration += 1
        seen.append((results, store.stats_snapshot().delta(before)))
    return seen


def _result_fields(result):
    return (repr(result.output), list(result.counters),
            result.map_input_records, result.map_output_records,
            result.reduce_output_records, result.reduce_input_values)


@given(data=st.data(), corpus=running_corpora, laps=st.integers(1, 2),
       parts=st.integers(1, 6),
       first=st.tuples(st.sampled_from(PATTERNS), st.integers(0, 6)),
       others=running_riders, cap=st.none() | st.integers(9, 14),
       block=st.integers(12, 40))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_running_sums_match_the_per_record_fifo_oracle(
        tmp_path_factory, data, corpus, laps, parts, first, others, cap,
        block):
    """Any summing and non-summing rider set, joining at any iteration,
    on a segment size that does not divide the block count (a ragged
    last segment), with one rider perhaps cancelled mid-lap and the
    token dictionary perhaps capped so low that it rolls over mid-lap:
    every finished job's output, counters, record counts and
    ``reduce_input_values`` are a solo per-record FIFO run's, and every
    lap's ``ReadStats`` are the same plan's with per-record mappers,
    less the visits the derived views served.

    The scan loop keeps every lap on one grid — a job ends where it
    started, on a segment boundary — so it never cuts a wave short for
    a rider."""
    directory = tmp_path_factory.mktemp("running-corpus")
    store = BlockStore.create(directory, corpus, block_size_bytes=block)
    blocks = store.num_blocks
    assume = blocks >= 3
    if not assume:
        return
    seg = data.draw(st.integers(2, blocks - 1).filter(
        lambda size: blocks % size), label="seg")
    cancel = data.draw(st.none() | st.tuples(
        st.integers(1, len(others)), st.integers(0, 8)), label="cancel") \
        if others else None
    rider_set = [(first[0], "sum", first[1]), *others]

    dictionaries = set()
    add_wave = ScanSums.add_wave

    def recording_add_wave(self, shared, riders):
        dictionaries.update(sums.dictionary for sums in shared)
        return add_wave(self, shared, riders)

    with pytest.MonkeyPatch.context() as patch:
        if cap is not None:
            patch.setattr(tokens, "TOKEN_DICTIONARY_CAP", cap)
        patch.setattr(ScanSums, "add_wave", recording_add_wave)
        run = (directory, rider_set, seg, laps, parts)
        batched = _scan_laps(*run, True, cancel)
        per_record = _scan_laps(*run, False, cancel)
    oracle = FifoLocalRunner(BlockStore(directory)).run(
        _running_jobs(rider_set, parts, batched=False)).results

    for (results, reads), (_, plain_reads) in zip(batched, per_record):
        assert results
        for job_id, result in results.items():
            assert _result_fields(result) == _result_fields(oracle[job_id])
        logical = dataclasses.replace(
            reads, physical_blocks_read=plain_reads.physical_blocks_read,
            physical_bytes_read=plain_reads.physical_bytes_read,
            mmap_blocks_read=plain_reads.mmap_blocks_read,
            view_blocks_read=0)
        assert logical == plain_reads
        assert reads.physical_blocks_read + reads.view_blocks_read \
            == reads.blocks_read
    if cap is not None and len(set(WORDS) & set(" ".join(corpus).split())) \
            > cap:
        assert len(dictionaries) > 1  # rolled over mid-scan
