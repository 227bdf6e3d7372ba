"""Property: a block visit loads bytes only on a view miss, whatever
rides it.

Random rider mixes — selection at several thresholds, aggregation,
summing and non-summing wordcount, and per-record mappers — run two laps
of one plan on a sharded store handle, with one shard failed for the
second lap.  Against the oracle (the same plan with per-record mappers
on a fresh handle, which loads every block it visits): part files,
counters and the logical ``ReadStats`` of each lap are byte-identical;
every run books each visit in exactly one tier; and a lap on which
every rider finds all its views kept reads no block — so no read fails
over to a replica, though a shard is down.  Wordcount reads text lines
and the delimited kernels read lineitem rows, so each corpus kind draws
its own mix.
"""

import dataclasses
import hashlib

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import ExecutionConfig
from repro.localrt.jobs import aggregation_job, selection_job, wordcount_job
from repro.localrt.output import write_output
from repro.localrt.records import DelimitedReader, TextLineReader
from repro.localrt.runners import SharedScanRunner
from repro.localrt.sharded import ShardedBlockStore
from repro.localrt.tokens import MISSING
from repro.workloads.tpch import LINEITEM_COLUMNS, LineitemGenerator

WORDS = [stem + suffix for stem in ("th", "run", "eat", "app", "mot", "sad")
         for suffix in ("e", "ing", "ed", "le", "ion", "s", "")]
PATTERNS = ["^th.*", ".*ing$", ".*e.*", "^[aeiou].*"]
LINEITEM_READER = DelimitedReader("|", len(LINEITEM_COLUMNS))
QUANTITIES_VIEW = ("quantities", b"|", len(LINEITEM_COLUMNS))
ROWS_VIEW = ("rows", b"|", len(LINEITEM_COLUMNS))

#: A rider: (kind, parameter, per-record, arrival iteration).
arrivals = st.integers(0, 5)
per_record = st.sampled_from([False, False, False, True])
text_riders = st.lists(
    st.tuples(st.sampled_from(["sum", "map"]), st.sampled_from(PATTERNS),
              per_record, arrivals),
    min_size=1, max_size=4)
#: ``l_quantity`` is uniform on 1..50: 2 selects a few rows, within the
#: row table's budget (an eighth of the block), 51 every row, past it.
lineitem_riders = st.lists(
    st.one_of(
        st.tuples(st.just("sel"), st.sampled_from([2.0, 5.0, 10.0, 51.0]),
                  per_record, arrivals),
        st.tuples(st.just("agg"), st.none(), per_record, arrivals)),
    min_size=1, max_size=4)


def _jobs(rider_set, oracle):
    jobs = []
    for i, (kind, parameter, records, _) in enumerate(rider_set):
        batched = not (oracle or records)
        if kind in ("sum", "map"):
            jobs.append(wordcount_job(f"j{i}", parameter,
                                      use_combiner=kind == "sum",
                                      batched=batched))
        elif kind == "sel":
            jobs.append(selection_job(f"j{i}", parameter, batched=batched))
        else:
            jobs.append(aggregation_job(f"j{i}", batched=batched))
    return jobs


def _two_laps(store, rider_set, reader, seg, oracle, out_root):
    """Lap one on a live store, lap two with shard 0 down: what each
    lap let a caller see, and its ``ReadStats`` delta."""
    jobs = _jobs(rider_set, oracle)
    arrival = {job.job_id: rider[-1] for job, rider in zip(jobs, rider_set)}
    laps = []
    with SharedScanRunner(store, ExecutionConfig(blocks_per_segment=seg),
                          reader=reader) as runner:
        for lap in range(2):
            if lap == 1:
                store.fail_shard(0)
            report = runner.run(jobs, arrival)
            parts = {}
            for job_id, result in sorted(report.results.items()):
                for path in write_output(result,
                                         out_root / f"lap{lap}" / job_id):
                    parts[job_id, path.name] = hashlib.sha256(
                        path.read_bytes()).hexdigest()
            seen = {job_id: (repr(result.output), list(result.counters),
                             result.map_input_records,
                             result.map_output_records)
                    for job_id, result in report.results.items()}
            laps.append((parts, seen, dataclasses.asdict(report.io)))
    return laps


def _all_views_kept(store, rider_set):
    """Whether every batched rider of ``rider_set`` finds each block's
    views in the table: no per-record rider, and no selection that
    emits a row the block's row table lacks."""
    if any(records for _, _, records, _ in rider_set):
        return False
    views = store.derived
    for kind, threshold, _, _ in rider_set:
        if kind != "sel":
            continue
        for index in range(store.num_blocks):
            columnar = views.lookup(index, QUANTITIES_VIEW)
            table = views.lookup(index, ROWS_VIEW)
            if columnar in (MISSING, None) or table is MISSING:
                return False
            quantities = np.empty_like(columnar.ranked)
            quantities[columnar.rank] = columnar.ranked
            rows = np.flatnonzero(quantities < threshold).tolist()
            if any(table.slots[row] is None for row in rows):
                return False
    return True


def _check(tmp_path_factory, lines, block_size, rider_set, reader, seg):
    directory = tmp_path_factory.mktemp("lazy-corpus")
    ShardedBlockStore.create(directory, lines, block_size,
                             num_shards=3, replication=2)
    runs = {}
    for oracle in (False, True):
        store = ShardedBlockStore(directory)
        out_root = tmp_path_factory.mktemp("out")
        runs[oracle] = _two_laps(store, rider_set, reader, seg, oracle,
                                 out_root)
        for _parts, _seen, io in runs[oracle]:
            assert io["blocks_read"] == (io["physical_blocks_read"]
                                         + io["view_blocks_read"])
        if not oracle:
            kept = _all_views_kept(store, rider_set)
    for (parts, seen, io), (oracle_parts, oracle_seen, oracle_io) in zip(
            runs[False], runs[True], strict=True):
        assert parts == oracle_parts
        assert seen == oracle_seen
        for field in ("blocks_read", "bytes_read"):
            assert io[field] == oracle_io[field], field
        assert io["physical_blocks_read"] <= oracle_io["physical_blocks_read"]
        assert io["replica_fallback_reads"] \
            <= oracle_io["replica_fallback_reads"]
    warm = runs[False][1][2]
    if kept:
        assert warm["physical_blocks_read"] == 0
        assert warm["replica_fallback_reads"] == 0
        assert warm["view_blocks_read"] == warm["blocks_read"] > 0


@given(corpus=st.lists(
           st.lists(st.sampled_from(WORDS), min_size=1,
                    max_size=10).map(" ".join),
           min_size=6, max_size=24),
       block_size=st.integers(30, 150), seg=st.integers(1, 3),
       rider_set=text_riders)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_text_visits_load_bytes_only_on_a_miss(tmp_path_factory, corpus,
                                                block_size, seg, rider_set):
    _check(tmp_path_factory, corpus, block_size, rider_set,
           TextLineReader(), seg)


@given(rows_seed=st.integers(0, 2**16), rows=st.integers(6, 36),
       block_size=st.integers(300, 1500), seg=st.integers(1, 3),
       rider_set=lineitem_riders)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_lineitem_visits_load_bytes_only_on_a_miss(tmp_path_factory,
                                                    rows_seed, rows,
                                                    block_size, seg,
                                                    rider_set):
    _check(tmp_path_factory, LineitemGenerator(seed=rows_seed).rows(rows),
           block_size, rider_set, LINEITEM_READER, seg)
