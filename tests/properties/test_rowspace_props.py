"""Property: a selection job's row-space shuffle changes nothing
observable.

A batched selection rider whose block passes the columnar check hands
the shuffle a ``RowPartial`` (its records and their keys' codes, which
the block's row table keeps beside its records), and a job whose reduce
is exactly the identity keeps those partials until its reduce orders
every row with one stable sort (``JobRunState.rows``).  For any rider
set, thresholds, partition counts and arrival iterations, in each of
the cases where that is easiest to get wrong — keys whose decimal
strings are prefixes of one another, a block in the middle of the file
whose riders hand over plain lists (it fails the columnar check, or a
key there is too wide for the codes), so one job mixes partials and
lists and spills, rows past the row table's budget, and the progressive
fold of ``fold_partial_aggregates`` — the run must produce the outputs,
counters, record counts, ``reduce_input_values`` and logical
``ReadStats`` of the same plan with per-record mappers (a batched
rider's warm visit may be served from the store handle's derived-view
table, so which tier served a visit is not compared).  Each case also
checks that it really happened.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.localrt.engine as engine
import repro.localrt.jobs as jobs_module
import repro.localrt.tokens as tokens
from repro.common.config import ExecutionConfig
from repro.ext.aggregation import fold_partial_aggregates
from repro.localrt.api import BlockData, IdentityReducer, default_partitioner
from repro.localrt.engine import JobRunState, _sort_key
from repro.localrt.jobs import (
    SelectionBlockMapper,
    SelectionMapper,
    aggregation_job,
    selection_job,
)
from repro.localrt.records import DelimitedReader
from repro.localrt.runners import SharedScanRunner
from repro.localrt.storage import BlockStore
from repro.localrt.tokens import DerivedViews, RowPartial, RowTable
from repro.workloads.tpch import LINEITEM_COLUMNS

READER = DelimitedReader("|", len(LINEITEM_COLUMNS))
ORDERKEY = LINEITEM_COLUMNS.index("l_orderkey")
LINENUMBER = LINEITEM_COLUMNS.index("l_linenumber")
QUANTITY = LINEITEM_COLUMNS.index("l_quantity")
COMMENT = LINEITEM_COLUMNS.index("l_comment")

#: Keys whose decimal strings are prefixes of one another: ``repr``
#: order puts ``(12, …)`` before ``(120, …)`` before ``(1200, …)``
#: before ``(13, …)``, and ``(…, 1)`` before ``(…, 10)``.
PREFIX_ORDERKEYS = (9, 10, 12, 120, 1200)
PREFIX_LINENUMBERS = (1, 10)

CASES = ("prefix-keys", "mixed-block", "past-budget", "fold")

key_parts = st.one_of(
    st.sampled_from(PREFIX_ORDERKEYS + (0, 1, 13, 10 ** 8, 10 ** 9 - 1)),
    st.integers(0, 10 ** 9 - 1))
#: (orderkey, linenumber, quantity); keys repeat often, so equal keys'
#: tie order (arrival) is exercised too.
rows = st.lists(
    st.tuples(key_parts, st.sampled_from(PREFIX_LINENUMBERS + (2, 7)),
              st.integers(1, 50)),
    min_size=4, max_size=30)
#: (threshold, partitions, exactly IdentityReducer?, arrival)
riders = st.lists(
    st.tuples(st.integers(2, 51), st.integers(1, 8), st.booleans(),
              st.integers(0, 5)),
    min_size=0, max_size=3)


#: A threshold at an integer quantity, just below or just above one
#: (the neighbouring doubles), or ``inf``: where a sorted prefix's end
#: (``searchsorted``) and the per-record ``<`` could part.
thresholds = st.one_of(
    st.just(math.inf),
    st.tuples(st.integers(1, 51), st.sampled_from((-math.inf, 0, math.inf)))
    .map(lambda drawn: float(np.nextafter(drawn[0], drawn[1]))
         if drawn[1] else float(drawn[0])))


class _IdentityByAnotherName(IdentityReducer):
    """Reduces as the identity, but is not exactly ``IdentityReducer``:
    its job keeps every record in ``groups``."""


def _line(serial, orderkey, linenumber, quantity):
    """A lineitem-shaped row; the comment numbers it, so two rows with
    one key are told apart in the output (their arrival order shows)."""
    fields = ["1"] * len(LINEITEM_COLUMNS)
    fields[ORDERKEY] = str(orderkey)
    fields[LINENUMBER] = str(linenumber)
    fields[QUANTITY] = str(quantity)
    fields[COMMENT] = f"r{serial}"
    return "|".join(fields)


def _corpus(case, drawn, block_size, defect):
    lines = [_line(serial, *row) for serial, row in enumerate(drawn)]
    if case == "prefix-keys":
        lines = [_line(f"p{orderkey}-{linenumber}", orderkey, linenumber, 1)
                 for orderkey in PREFIX_ORDERKEYS
                 for linenumber in PREFIX_LINENUMBERS] + lines
    if case == "past-budget":  # a row every rider selects
        lines = [_line("q1", 1, 1, 1)] + lines
    if case == "mixed-block":
        # Past block 0 (which closes once it holds ``block_size``
        # bytes), so a rider that starts there has absorbed a partial
        # before it meets the block that yields a plain list.
        first_block = []
        while sum(len(line) + 1 for line in first_block) < block_size:
            first_block.append(lines[len(first_block) % len(lines)])
        # Quantity 1: every rider selects a wide key.
        bad = (_line("bad", 10 ** 9, 1, 1) if defect == "wide-key"
               else _line("bad", 120, 1, "2.5"))
        lines = first_block + [bad] + lines
    return lines


def _run(directory, rider_set, seg, laps, batched, fold):
    """``laps`` runs of the rider set on one store handle: what each
    exposes to a caller.  ``fold`` (if any) runs at every iteration's
    end, with an aggregation rider for it to fold."""
    store = BlockStore(directory)
    jobs_arrivals = []
    for i, (threshold, partitions, exact, arrival) in enumerate(rider_set):
        job = selection_job(f"s{i}", float(threshold),
                            num_partitions=partitions, batched=batched)
        if not exact:
            job.reducer = _IdentityByAnotherName()
        jobs_arrivals.append((job, arrival))
    if fold:
        jobs_arrivals.append((aggregation_job("agg", batched=batched), 1))
    hook = (lambda _i, states: fold(states)) if fold else None
    seen = []
    with SharedScanRunner(store, ExecutionConfig(blocks_per_segment=seg),
                          reader=READER) as runner:
        for _ in range(laps):
            before = store.stats_snapshot()
            report = runner.run(
                [job for job, _ in jobs_arrivals],
                {job.job_id: arrival for job, arrival in jobs_arrivals},
                on_iteration_end=hook)
            seen.append((
                {job_id: (repr(result.output), list(result.counters),
                          result.map_input_records, result.map_output_records,
                          result.reduce_output_records,
                          result.reduce_input_values)
                 for job_id, result in sorted(report.results.items())},
                {field: getattr(store.stats_snapshot().delta(before), field)
                 for field in ("blocks_read", "bytes_read")}))
    return seen


@pytest.mark.parametrize("case", CASES)
@given(data=st.data(), drawn=rows, seg=st.integers(1, 3),
       laps=st.integers(1, 2),
       first=st.tuples(st.integers(2, 51), st.integers(1, 8)),
       others=riders)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_row_space_shuffle_matches_per_record(tmp_path_factory, case, data,
                                              drawn, seg, laps, first,
                                              others):
    block_size = data.draw(st.integers(60, 400), label="block")
    defect = data.draw(st.sampled_from(["wide-key", "fraction"]),
                       label="defect")
    # The first rider keeps its shuffle in row space from block 0 on.
    rider_set = [(first[0], first[1], True, 0), *others]
    directory = tmp_path_factory.mktemp("rowspace-corpus")
    BlockStore.create(directory, _corpus(case, drawn, block_size, defect),
                      block_size_bytes=block_size)

    ordered = []  # rows each row-space reduce ordered
    spilled = []  # partials spilled when a plain list arrived
    refused = []  # rows offered to a row table and not kept
    folded = []  # per fold: did some job hold row-space partials?
    rows_in_order, spill = engine._rows_in_reduce_order, JobRunState._spill_rows
    keep = RowTable.keep

    def recording_order(partials, num_partitions):
        output = rows_in_order(partials, num_partitions)
        ordered.append([key for key, _ in output])
        return output

    def recording_spill(self):
        spilled.append(len(self.rows))
        spill(self)

    def recording_keep(self, rows, text_bytes, records, codes=None):
        rows = list(rows)
        keep(self, rows, text_bytes, records, codes)
        refused.extend(row for row in rows if self.slots[row] is None)

    def recording_fold(states):
        folded.append(any(state.rows for state in states))
        fold_partial_aggregates(states)

    with pytest.MonkeyPatch.context() as patch:
        if case == "past-budget":
            patch.setattr(tokens, "ROW_TABLE_TEXT_DIVISOR", 10 ** 6)
        patch.setattr(engine, "_rows_in_reduce_order", recording_order)
        patch.setattr(JobRunState, "_spill_rows", recording_spill)
        patch.setattr(RowTable, "keep", recording_keep)
        fold = recording_fold if case == "fold" else None
        batched = _run(directory, rider_set, seg, laps, True, fold)
        per_record = _run(directory, rider_set, seg, laps, False, fold)

    assert batched == per_record
    if case != "mixed-block":  # there, every job meets the plain list
        assert ordered  # the row-space reduce ran
    if case == "prefix-keys":
        keys = set(ordered[0])
        assert {(12, 1), (120, 1), (1200, 1), (12, 10)} <= keys
    if case == "mixed-block":
        assert any(spilled)
    if case == "past-budget":
        assert refused
    if case == "fold":
        assert any(folded)


# ------------------------------------------------------ the sorted prefix

def _per_record(text, threshold):
    mapper = SelectionMapper(threshold)
    return [record for key, value in READER.read(text, 0)
            for record in mapper.map(key, value)]


@given(drawn=rows, riders_in_turn=st.lists(thresholds, min_size=1,
                                           max_size=4))
@settings(max_examples=80, deadline=None)
def test_a_sorted_prefix_selects_what_the_per_record_mapper_does(
        drawn, riders_in_turn):
    """Riders in turn on one block and one table — each may find rows an
    earlier one kept — select, at thresholds on, just off and past the
    integer quantities, exactly the per-record rows in row order, and
    none of them is ``None``."""
    text = "".join(_line(serial, *row) + "\n"
                   for serial, row in enumerate(drawn))
    views = DerivedViews()
    for threshold in riders_in_turn:
        count, selected, _ = SelectionBlockMapper(threshold).map_block(
            BlockData(text.encode()).bind(views, 0), 0)
        assert count == len(drawn)
        assert isinstance(selected, RowPartial)  # every key has codes
        assert list(selected) == _per_record(text, threshold)


MIX_CASES = ("one-threshold", "wider-joins", "past-budget")


@pytest.mark.parametrize("case", MIX_CASES)
@given(data=st.data(), drawn=rows, seg=st.integers(1, 3),
       laps=st.integers(1, 2), first=thresholds, second=thresholds,
       partitions=st.tuples(st.integers(1, 8), st.integers(1, 8)))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_rider_mixes_on_one_row_table_match_per_record(
        tmp_path_factory, case, data, drawn, seg, laps, first, second,
        partitions):
    """Two selection riders share each block's row table:
    ``one-threshold`` — both at one threshold in one wave, where the
    second takes every record the first kept;
    ``wider-joins`` — a wider rider joins a lap after a narrower one
    has kept some of a block's rows and not others, so it gathers the
    kept ones and parses the rest; ``past-budget`` — a rider that
    selects every row meets a table that keeps half a block.  Every run
    reads as its per-record run."""
    block_size = data.draw(st.integers(60, 400), label="block")
    lines = [_line(serial, *row) for serial, row in enumerate(drawn)]
    divisor = 1  # a block this small keeps no row at the stock share
    if case == "one-threshold":
        rider_set = [(first, partitions[0], True, 0),
                     (first, partitions[0], True, 0)]
    elif case == "wider-joins":
        narrow, wide = sorted((first, second))
        assume(narrow < math.inf)
        below, above = math.ceil(narrow) - 1, math.ceil(narrow)
        assume(below >= 1 and above < wide)
        # Block 0 holds a row only the wider rider selects, past one
        # the narrower one keeps before the wider rider gets there.
        lines = [_line("n", 1, 1, below), _line("w", 2, 1, above), *lines]
        rider_set = [(narrow, partitions[0], True, 0),
                     (wide, partitions[1], True, 1)]
    else:
        divisor = 2
        rider_set = [(first, partitions[0], True, 0),
                     (math.inf, partitions[1], True,
                      data.draw(st.integers(0, 2), label="arrival"))]
    directory = tmp_path_factory.mktemp("rowspace-mix")
    BlockStore.create(directory, lines, block_size_bytes=block_size)

    refused = []  # rows offered to a row table and not kept
    topped_up = []  # rows kept into a table some rider already filled
    keep = RowTable.keep

    def recording_keep(self, rows, text_bytes, records, codes=None):
        rows = list(rows)
        had = int(self.kept.sum())
        keep(self, rows, text_bytes, records, codes)
        refused.extend(row for row in rows if not self.kept[row])
        if had:
            topped_up.append(int(self.kept.sum()) - had)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tokens, "ROW_TABLE_TEXT_DIVISOR", divisor)
        patch.setattr(RowTable, "keep", recording_keep)
        batched = _run(directory, rider_set, seg, laps, True, None)
        per_record = _run(directory, rider_set, seg, laps, False, None)

    assert batched == per_record
    if case == "one-threshold":
        for outputs, _reads in batched:
            assert outputs["s0"][0] == outputs["s1"][0]
    if case == "wider-joins":
        assert any(topped_up)
    if case == "past-budget":
        assert refused


# ---------------------------------------------------------------- the codes

@given(keys=st.lists(st.tuples(key_parts, key_parts), min_size=1,
                     max_size=60))
@settings(max_examples=60, deadline=None)
def test_key_codes_sort_like_sort_key_and_partition_like_the_partitioner(
        keys):
    """For keys ``(a, b)`` with ``a, b`` in [0, 10⁹): the order codes
    sort like ``_sort_key`` (equal exactly when the keys are) and the
    hashes are ``hash(key)``, so they partition like
    ``default_partitioner`` for 1 to 8 partitions."""
    hashes, order = jobs_module._key_codes([(key, ()) for key in keys])
    assert hashes.tolist() == [hash(key) for key in keys]
    order = order.tolist()
    by_code = sorted(range(len(keys)), key=order.__getitem__)
    by_sort_key = sorted(range(len(keys)), key=lambda i: _sort_key(keys[i]))
    assert by_code == by_sort_key  # both stable: ties stay in row order
    for i in range(len(keys)):
        for j in range(len(keys)):
            assert (order[i] == order[j]) == (keys[i] == keys[j])
    for partitions in range(1, 9):
        assert (hashes % partitions).tolist() == [
            default_partitioner(key, partitions) for key in keys]
    assert hashes.dtype == np.int64


@pytest.mark.parametrize("key", [(10 ** 9, 1), (1, 10 ** 9), (-1, 1),
                                 (2 ** 70, 1)])
def test_key_codes_refuse_a_key_part_outside_their_range(key):
    assert jobs_module._key_codes([((0, 1), ()), (key, ())]) is None
