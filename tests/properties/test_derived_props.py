"""Property: the derived-view table changes nothing observable but the
tier that serves a visit.

For any corpus, block size, rider set and number of laps — with the
token dictionary's cap and the table's cap forced so small that
roll-over, non-admission and re-admission all happen mid-scan — a plan
run on a store handle
whose table is in play produces byte-identical part files, identical
job counters and identical logical ``ReadStats`` to the per-record
mappers on a fresh handle (the oracle, which loads every block it
visits), under every ``map_backend`` name; it never reads the disk more
often than the oracle, and every visit is booked in exactly one tier:
the table (``view_blocks_read``) or the disk (``physical_blocks_read``).
Two legs: wordcount riders on text (the encoded
view, with its record count) and selection + aggregation riders on
lineitem (the kernels' ``memo`` views); a visit whose riders find every
view they use in the table is served without a byte loaded.
"""

import dataclasses
import hashlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.localrt.tokens as tokens
from repro.common.config import MAP_BACKENDS, ExecutionConfig
from repro.localrt.jobs import aggregation_job, selection_job, wordcount_job
from repro.localrt.output import write_output
from repro.localrt.records import DelimitedReader
from repro.localrt.runners import SharedScanRunner
from repro.localrt.storage import BlockStore
from repro.workloads.tpch import LINEITEM_COLUMNS, LineitemGenerator

WORDS = [stem + suffix for stem in ("th", "run", "eat", "app", "mot", "sad")
         for suffix in ("e", "ing", "ed", "le", "ion", "s", "")]
PATTERNS = ["^th.*", ".*ing$", ".*e.*", "^[aeiou].*"]

corpora = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=10).map(" ".join),
    min_size=6, max_size=24)
#: (pattern, summing, arrival): a summing rider (combiner on) is summed
#: per wave, one without is mapped block by block, so a drawn set is
#: summing only, mapped only or mixed.
riders = st.lists(
    st.tuples(st.sampled_from(PATTERNS), st.booleans(), st.integers(0, 6)),
    min_size=1, max_size=4)


def _wordcount_riders(rider_set, batched):
    return [wordcount_job(f"j{i}", pattern, use_combiner=combiner,
                          batched=batched)
            for i, (pattern, combiner, _) in enumerate(rider_set)]


def _plan(store, backend, seg, laps, jobs, rider_set, out_root, reader=None):
    """``laps`` back-to-back runs of one rider set on one store handle;
    what each run let a caller observe (floats as the part files spell
    them, i.e. by ``repr``)."""
    arrivals = {job.job_id: rider[-1] for job, rider in zip(jobs, rider_set)}
    config = ExecutionConfig(blocks_per_segment=seg, map_backend=backend,
                             map_workers=2)
    outputs, reads = [], []
    with SharedScanRunner(store, config, reader=reader) as runner:
        for lap in range(laps):
            report = runner.run(jobs, arrivals)
            parts = {}
            for job_id, result in sorted(report.results.items()):
                for path in write_output(result,
                                         out_root / f"lap{lap}" / job_id):
                    parts[job_id, path.name] = hashlib.sha256(
                        path.read_bytes()).hexdigest()
            outputs.append((parts, {job_id: (repr(result.output),
                                             list(result.counters),
                                             result.map_input_records,
                                             result.map_output_records)
                                    for job_id, result
                                    in report.results.items()}))
            reads.append(dataclasses.asdict(store.stats_snapshot()))
    return outputs, reads


@given(corpus=corpora, block_size=st.integers(30, 150),
       seg=st.integers(1, 3), laps=st.integers(1, 3), rider_set=riders,
       dictionary_cap=st.integers(4, 48), table_blocks=st.integers(1, 4))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_table_changes_nothing_observable(tmp_path_factory, corpus,
                                          block_size, seg, laps, rider_set,
                                          dictionary_cap, table_blocks):
    directory = tmp_path_factory.mktemp("derived-corpus")
    BlockStore.create(directory, corpus, block_size_bytes=block_size)
    _assert_table_changes_nothing(
        tmp_path_factory, directory, table_blocks * block_size,
        {"TOKEN_DICTIONARY_CAP": dictionary_cap},
        lambda store, backend, batched, out_root: _plan(
            store, backend, seg, laps, _wordcount_riders(rider_set, batched),
            rider_set, out_root),
        # Every visit of a batched wordcount rider asks the table for
        # the block's encoding exactly once, hit or miss.
        one_lookup_per_visit=True)


#: The ``ReadStats`` fields that count visits, not how they were served.
LOGICAL = ("blocks_read", "bytes_read", "replica_fallback_reads")


def _assert_table_changes_nothing(tmp_path_factory, directory, table_cap,
                                  bound_caps, run_plan,
                                  one_lookup_per_visit=False):
    """``run_plan(store, backend, batched, out_root)`` under every name,
    two ways — kernels with a table of ``table_cap`` bytes (under
    ``bound_caps``), and the per-record oracle — each on a fresh store
    handle, hence a table and a dictionary, of its own: outputs and logical
    reads must not differ, the table's run reads the disk no more often
    than the oracle does, and every visit is booked in one tier."""
    outcomes = {}
    for backend in MAP_BACKENDS:
        for variant in ("bound", "per-record"):
            out_root = tmp_path_factory.mktemp(f"out-{backend}-{variant}")
            with pytest.MonkeyPatch.context() as patch:
                if variant == "bound":
                    for name, value in bound_caps.items():
                        patch.setattr(tokens, name, value)
                    patch.setattr(tokens, "DERIVED_VIEWS_CAP_BYTES", table_cap)
                store = BlockStore(directory)
                outputs, reads = run_plan(
                    store, backend, variant != "per-record", out_root)
                for read in reads:  # cumulative, after each lap
                    assert read["blocks_read"] == (
                        read["physical_blocks_read"]
                        + read["view_blocks_read"]), (backend, variant)
                outcomes[backend, variant] = (
                    outputs, [{field: read[field] for field in LOGICAL}
                              for read in reads],
                    [read["physical_blocks_read"] for read in reads])
                if variant == "bound":
                    stats = store.derived.stats()
                    assert stats["hits"] + stats["misses"] > 0
                    assert stats["charged_bytes"] <= table_cap
                    if one_lookup_per_visit:
                        assert (stats["hits"] + stats["misses"]
                                == reads[-1]["blocks_read"])
                else:
                    assert store.derived.stats()["hits"] == 0
                    assert all(read["view_blocks_read"] == 0
                               for read in reads)
    outputs, logical, oracle_physical = outcomes["serial", "per-record"]
    for (backend, variant), outcome in outcomes.items():
        assert outcome[:2] == (outputs, logical), (backend, variant)
        assert all(seen <= oracle for seen, oracle
                   in zip(outcome[2], oracle_physical)), (backend, variant)


LINEITEM_READER = DelimitedReader("|", len(LINEITEM_COLUMNS))

#: ("sel", threshold, arrival) | ("agg", arrival): ``l_quantity`` is
#: uniform on 1..50, so 51 selects every row, 2 almost none and 0.5
#: none.  The predicate is ``<``, so any two riders' row sets nest —
#: drawn equal (six values, up to five riders), a quantity apart (10 /
#: 10.5) or as unrelated as 0.5 and 51 look.
lineitem_riders = st.lists(
    st.one_of(st.tuples(st.just("sel"),
                        st.sampled_from([0.5, 2, 10, 10.5, 25, 51]),
                        st.integers(0, 6)),
              st.tuples(st.just("agg"), st.integers(0, 6))),
    min_size=1, max_size=5)


def _lineitem_riders(rider_set, batched):
    return [selection_job(f"j{i}", float(rider[1]), batched=batched)
            if rider[0] == "sel" else aggregation_job(f"j{i}", batched=batched)
            for i, rider in enumerate(rider_set)]


@given(rows_seed=st.integers(0, 2**16), rows=st.integers(6, 36),
       block_size=st.integers(300, 1500), seg=st.integers(1, 3),
       laps=st.integers(1, 3), rider_set=lineitem_riders,
       table_blocks=st.integers(1, 6),
       row_divisor=st.sampled_from([1, 3, 8, 10_000]))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_table_changes_nothing_observable_on_lineitem(
        tmp_path_factory, rows_seed, rows, block_size, seg, laps, rider_set,
        table_blocks, row_divisor):
    """Selection and aggregation riders: the structural pass, the
    parsed rows and the per-flag partial sums come from the table on a
    warm block, the rest of the table's room goes to whichever view
    asked first, and a rider that joins mid-file folds its float
    partials in the same rotated order with the table and per-record.
    A block holds two to a dozen rows, so ``row_divisor`` — the row
    table's budget, as a divisor of the block — runs from every row
    kept through a few and one to none."""
    directory = tmp_path_factory.mktemp("derived-lineitem")
    BlockStore.create(directory, LineitemGenerator(seed=rows_seed).rows(rows),
                      block_size_bytes=block_size)
    _assert_table_changes_nothing(
        tmp_path_factory, directory, table_blocks * block_size,
        {"ROW_TABLE_TEXT_DIVISOR": row_divisor},
        lambda store, backend, batched, out_root: _plan(
            store, backend, seg, laps, _lineitem_riders(rider_set, batched),
            rider_set, out_root, LINEITEM_READER))
