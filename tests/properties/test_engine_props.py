"""Property-based tests for the event engine and unit helpers."""

import functools
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.units import bytes_to_mb, fmt_duration, mb_to_bytes
from repro.localrt import api
from repro.localrt.api import default_partitioner
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


@given(st.floats(min_value=0.001, max_value=1e7, allow_nan=False))
@settings(max_examples=80)
def test_mb_bytes_round_trip(mb):
    assert abs(bytes_to_mb(mb_to_bytes(mb)) - mb) < 1e-5


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
