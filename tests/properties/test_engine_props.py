"""Property-based tests for the event engine and unit helpers."""

import functools
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.units import fmt_duration
from repro.localrt import api
from repro.localrt.api import IdentityReducer, LocalJob, default_partitioner
from repro.localrt.engine import (
    JobRunState,
    _sort_key,
    absorb_map_result,
    count_pending_values,
    run_reduce,
)
from repro.simengine.events import EventQueue
from repro.simengine.simulator import Simulator


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=80)
def test_event_queue_pops_sorted(times):
    q = EventQueue()
    for t in times:
        q.push(t, lambda _t: None)
    popped = [q.pop().time for _ in range(len(times))]
    assert popped == sorted(times)


@given(st.lists(st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
                min_size=1, max_size=40))
@settings(max_examples=60)
def test_simulator_clock_monotone(times):
    sim = Simulator()
    observed = []
    for t in times:
        sim.at(t, lambda now: observed.append(now))
    sim.run()
    assert observed == sorted(observed)
    assert sim.events_processed == len(times)


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
@settings(max_examples=80)
def test_fmt_duration_total_function(seconds):
    text = fmt_duration(seconds)
    assert isinstance(text, str) and text


@given(st.text(min_size=0, max_size=30), st.integers(1, 64))
@settings(max_examples=100)
def test_partitioner_in_range_and_stable(key, partitions):
    first = default_partitioner(key, partitions)
    second = default_partitioner(key, partitions)
    assert first == second
    assert 0 <= first < partitions


def _reference_partition(key, partitions):
    """The partitioner as specified: Java's ``String.hashCode`` folded to
    31 bits for ``str`` (one step per code point), ``hash`` otherwise."""
    if isinstance(key, str):
        digest = 0
        for ch in key:
            digest = (digest * 31 + ord(ch)) & 0x7FFFFFFF
        return digest % partitions
    return hash(key) % partitions


#: Every code point: astral planes and lone surrogates included (the
#: default ``st.text()`` alphabet leaves surrogates out).
any_text = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF,
                                 exclude_categories=()), max_size=30)


@given(any_text, st.integers(1, 64))
@example("\ud800", 7)
@example("a\udfff\U0001f600", 4)
@example("", 1)
@settings(max_examples=200)
def test_memoised_partitioner_equals_reference_for_str(key, partitions):
    # Twice: the first call may fill the digest table, the second reads it.
    assert default_partitioner(key, partitions) \
        == default_partitioner(key, partitions) \
        == _reference_partition(key, partitions)


@given(st.one_of(st.integers(), st.booleans(), st.none(), st.binary(),
                 st.floats(allow_nan=False),
                 st.tuples(st.integers(), st.text(max_size=5))),
       st.integers(1, 64))
@settings(max_examples=100)
def test_partitioner_hashes_non_str_keys(key, partitions):
    assert default_partitioner(key, partitions) \
        == _reference_partition(key, partitions)


@given(st.lists(any_text, min_size=1, max_size=40), st.integers(1, 64))
@settings(max_examples=50)
def test_partitioner_survives_digest_table_eviction(keys, partitions):
    """A digest table far smaller than the key set evicts on nearly every
    call; answers stay the reference's and the table stays in its cap."""
    cap = 3
    tiny = functools.lru_cache(maxsize=cap)(api._str_digest.__wrapped__)
    with mock.patch.object(api, "_str_digest", tiny):
        for _ in range(2):
            for key in keys:
                assert default_partitioner(key, partitions) \
                    == _reference_partition(key, partitions)
                assert tiny.cache_info().currsize <= cap
    if len(set(keys)) > cap:
        assert tiny.cache_info().currsize == cap  # it did evict


def test_digest_table_is_bounded_by_its_cap():
    assert api._str_digest.cache_info().maxsize == api.DIGEST_TABLE_CAP


# ------------------------------------------------- the one-table shuffle

class _Tie:
    """Keys that are distinct to a ``dict`` but tie under ``_sort_key``
    (same type name, same ``repr``) — the reduce must then keep their
    arrival order, which only a stable sort over arrival-ordered
    buckets does."""

    def __init__(self, tag):
        self.tag = tag

    def __hash__(self):
        return self.tag % 3  # collide across partitions too

    def __eq__(self, other):
        return isinstance(other, _Tie) and other.tag == self.tag

    def __repr__(self):
        return "tie"


#: Heterogeneous keys, drawn from small pools so they repeat — with
#: ``1 == 1.0 == True`` and ``0 == 0.0 == -0.0 == False`` (one ``dict``
#: slot each, whichever spelling arrives first names it).
shuffle_keys = st.one_of(
    st.sampled_from(["a", "b", "ab", "", "1", "True", "\ud800"]),
    st.sampled_from([0, 1, 2, -1, -2, 2**61 - 1, 2**61]),
    st.booleans(),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, -1.0, float("inf")]),
    st.tuples(st.integers(0, 2), st.sampled_from(["x", "y"])),
    st.sampled_from([(1,), (1.0,), (True,), ()]),
    st.integers(0, 5).map(_Tie),
    st.none(),
)


def _reference_shuffle(buffers, partitions):
    """The shuffle as the parent of PR 23 ran it: every absorbed record
    is partitioned, into one key -> values dict per partition; reduce
    walks the partitions in index order, each in ``_sort_key`` order."""
    tables = [{} for _ in range(partitions)]
    absorbed = 0
    for buffer in buffers:
        for key, value in buffer:
            absorbed += 1
            tables[_reference_partition(key, partitions)] \
                .setdefault(key, []).append(value)
    pending = sum(len(values) for table in tables
                  for values in table.values())
    output = [(key, value) for table in tables
              for key in sorted(table, key=_sort_key)
              for value in table[key]]
    return output, pending, absorbed


@given(st.lists(st.tuples(shuffle_keys, st.integers(0, 9)), max_size=60),
       st.integers(1, 8), st.lists(st.integers(0, 60), max_size=4))
@example([(1, 0), (1.0, 1), (True, 2), ("1", 3), (1.0, 4)], 4, [2])
@example([(_Tie(4), 0), (_Tie(1), 1), (_Tie(4), 2)], 3, [])
@settings(max_examples=150, deadline=None)
def test_one_table_shuffle_equals_per_record_partitioning(records,
                                                          partitions, cuts):
    edges = [0, *sorted(min(cut, len(records)) for cut in cuts), len(records)]
    buffers = [records[lo:hi] for lo, hi in zip(edges, edges[1:])]
    state = JobRunState(LocalJob(job_id="j", mapper=None,
                                 reducer=IdentityReducer(),
                                 num_partitions=partitions))
    for buffer in buffers:  # one map task each, empty ones included
        absorb_map_result(state, len(buffer), buffer, None)
    expected_output, pending, absorbed = _reference_shuffle(buffers,
                                                            partitions)
    assert count_pending_values(state) == pending == len(records)
    assert state.map_output_records == absorbed
    output = run_reduce(state)
    # ``==`` cannot tell 1 from True from 1.0, nor 0.0 from -0.0: compare
    # the spelling too, so the key that named the slot is the same one.
    assert [(type(k), repr(k), v) for k, v in output] \
        == [(type(k), repr(k), v) for k, v in expected_output]
    assert state.counters.value("framework", "reduce_output_records") \
        == len(records)
