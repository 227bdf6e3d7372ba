"""Property: a summing wordcount job's id-space shuffle changes nothing
observable.

A batched wordcount rider whose reducer and combiner both sum is not
mapped block by block on a map wave: the wave sums the raw counts of the
blocks its summing riders rode once per group of riders that rode the
same blocks, adds the sums to each rider's ``WaveWordSums``, and the
rider's pattern is applied once, when its shuffle is read
(``JobRunState.settle``).  For any rider set, arrival iterations and
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

The scheduler keeps every chunk on one grid, so riders that share a
wave ride the same blocks; the test also hands a wave's finishing riders
a prefix of its chunk (as any caller of ``execute_map_wave`` may), so a
wave's summing riders fall into groups that rode different blocks.

A job whose whole shuffle is one accumulator reduces by sorting its ids
on the dictionary's per-word codes (``TokenEncoder.codes``), so the
corpus holds words whose ``repr`` order is not their ``str`` order, and
the jobs draw their partition count.
"""

import dataclasses
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.localrt.engine as engine
import repro.localrt.tokens as tokens
from repro.common.config import ExecutionConfig
from repro.ext.aggregation import fold_partial_aggregates
from repro.localrt.api import BlockData, default_partitioner
from repro.localrt.engine import JobRunState, run_reduce
from repro.localrt.jobs import PatternWordCountBlock, wordcount_job
from repro.localrt.live import SharedScanCore
from repro.localrt.parallel import MapTaskSpec, execute_map_wave
from repro.localrt.records import TextLineReader
from repro.localrt.storage import BlockStore
from repro.localrt.tokens import TokenEncoder

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
#: is admitted at block 0, and riders admitted together finish together,
#: so the first wave is never cut).  A block of the short odd words may
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


def _wave_tasks(wave, cut):
    """The wave's tasks, its finishing riders cut from the last ``cut``
    blocks of the chunk when a rider that is not finishing keeps them."""
    finishing = {id(state) for state in wave.finishing}
    if len(wave.finishing) == len(wave.riders):
        return wave.tasks
    cut = min(cut, len(wave.tasks) - 1)
    return [MapTaskSpec(task.block_index, tuple(
        state for state in task.states
        if position < len(wave.tasks) - cut or id(state) not in finishing))
        for position, task in enumerate(wave.tasks)]


def _run(directory, rider_set, seg, laps, parts, batched, fold, cancel,
         cut):
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
                wave = core.plan(iteration, more_arrivals=bool(pending))
                if wave is not None:
                    execute_map_wave(store, TextLineReader(),
                                     _wave_tasks(wave, cut))
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
       others=riders, cut=st.integers(1, 2))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_id_space_shuffle_matches_per_record(tmp_path_factory, case, data,
                                             corpus, laps, parts, first,
                                             others, cut):
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

    waves = []  # per wave: the dictionaries of each group's blocks
    refused = []  # patterns the verdict table had no room for
    sorted_ids = []  # reduces that sorted one accumulator's ids
    absorb_wave = PatternWordCountBlock.absorb_wave
    vector = TokenEncoder._vector
    in_order = engine._sums_in_reduce_order

    def recording_absorb_wave(groups):
        absorb_wave(groups)
        waves.append([{block.dictionary for block in blocks}
                      for blocks, _ in groups])

    def recording_vector(self, dictionary, pattern):
        kept = vector(self, dictionary, pattern)
        if kept is None:
            refused.append(pattern)
        return kept

    def recording_in_order(dictionary, acc, num_partitions):
        sorted_ids.append(dictionary)
        return in_order(dictionary, acc, num_partitions)

    with pytest.MonkeyPatch.context() as patch:
        for name, value in caps.items():
            patch.setattr(tokens, name, value)
        patch.setattr(tokens, "ENCODER", TokenEncoder())
        patch.setattr(PatternWordCountBlock, "absorb_wave",
                      staticmethod(recording_absorb_wave))
        patch.setattr(TokenEncoder, "_vector", recording_vector)
        patch.setattr(engine, "_sums_in_reduce_order", recording_in_order)
        fold = case == "fold"
        run = (directory, rider_set, seg, laps, parts)
        batched = _run(*run, True, fold, cancel, cut)
        per_record = _run(*run, False, fold, cancel, cut)

    assert [lap[:2] for lap in batched] == [lap[:2] for lap in per_record]
    for (_, logical, physical, served), (_, _, oracle, none_served) in zip(
            batched, per_record):
        assert (oracle, none_served) == (logical["blocks_read"], 0)
        assert physical + served == logical["blocks_read"]
    assert waves
    groups = [group for wave in waves for group in wave]
    cap = caps.get("TOKEN_DICTIONARY_CAP", tokens.TOKEN_DICTIONARY_CAP)
    if case == "roll-over":  # one wave's blocks span two dictionaries
        assert max(map(len, groups)) >= 2
    if case == "over-wide":
        assert any(len(d.words) > cap for summed in groups for d in summed)
    if case == "full-verdict-table":
        assert refused
        assert sorted_ids  # nothing rolls over: every summing job sorts ids


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
    encoder = TokenEncoder()
    dictionary = encoder.encode(Counter(words[:cut] or words)).dictionary
    if cut:
        encoder.codes(dictionary, cut - 1)  # digests the first block's words
        encoder.encode(Counter(words[cut:]))
    digests, rank = encoder.codes(dictionary, len(words) - 1)
    assert [digest % parts for digest in digests.tolist()] == [
        default_partitioner(word, parts) for word in dictionary.words]
    ordered = sorted(range(len(words)), key=rank.__getitem__)
    assert [dictionary.words[i] for i in ordered] == sorted(
        words, key=engine._sort_key)


def test_a_dictionary_that_does_not_grow_is_ranked_once(monkeypatch):
    """Reduces against a dictionary that has stopped growing read the
    rank they find; one whose ids reach past it ranks the dictionary
    again, and one whose ids do not leaves it as it is."""
    monkeypatch.setattr(tokens, "ENCODER", TokenEncoder())

    def reduce_one(text):
        state = JobRunState(wordcount_job("wc", "^a", num_partitions=3))
        encoded = BlockData(text).encoded()
        PatternWordCountBlock.absorb_wave([([encoded], [state])])
        return run_reduce(state), encoded.dictionary

    output, dictionary = reduce_one(b"ant apple\nbee a!\n")
    ranked = dictionary.rank
    assert len(ranked) == 4
    for _ in range(5):
        assert reduce_one(b"apple bee\na! ant\n") == (output, dictionary)
    assert dictionary.rank is ranked

    reduce_one(b"cow ant\n")  # grows the dictionary; hits only ranked ids
    assert dictionary.rank is ranked
    grown, _ = reduce_one(b"ant aardvark\n")  # hits the new id 5
    assert dictionary.rank is not ranked and len(dictionary.rank) == 6
    assert grown == sorted(grown, key=lambda record: (
        default_partitioner(record[0], 3), engine._sort_key(record[0])))
