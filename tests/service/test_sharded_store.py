"""Scheduler service over a sharded store: same results, live failover."""

import math

import pytest

from repro.common.config import ExecutionConfig
from repro.localrt.jobs import aggregation_job, selection_job, wordcount_job
from repro.localrt.records import DelimitedReader
from repro.localrt.runners import FifoLocalRunner
from repro.localrt.sharded import ShardedBlockStore
from repro.localrt.storage import BlockStore
from repro.service import SchedulerService, ServiceConfig
from repro.workloads.tpch import (
    LINEITEM_COLUMNS,
    LineitemGenerator,
    quantity_threshold_for_selectivity,
)

from .test_core import make_service, run_to_completion

LINES = [f"alpha beta gamma delta line {i:04d} spam" for i in range(160)]


@pytest.fixture
def sharded(tmp_path):
    return ShardedBlockStore.create(tmp_path / "shards", LINES, 512,
                                    num_shards=4, replication=2)


def jobs():
    return [wordcount_job("wc-alpha", r"alpha"),
            wordcount_job("wc-beta", r"beta")]


def test_service_results_match_single_store(tmp_path, sharded):
    single = BlockStore.create(tmp_path / "corpus", LINES,
                               block_size_bytes=512)
    outputs = {}
    for name, store in (("sharded", sharded), ("single", single)):
        service = make_service(store)
        ids = [service.submit(job) for job in jobs()]
        run_to_completion(service)
        outputs[name] = [sorted(service.status(job_id).result.output)
                         for job_id in ids]
        service.shutdown()
    assert outputs["sharded"] == outputs["single"]


def test_service_survives_mid_scan_shard_loss(tmp_path, sharded):
    single = BlockStore.create(tmp_path / "corpus", LINES,
                               block_size_bytes=512)
    reference = make_service(single)
    ref_ids = [reference.submit(job) for job in jobs()]
    run_to_completion(reference)

    service = make_service(sharded)
    ids = [service.submit(job) for job in jobs()]
    service.step()  # first iteration done; scan is mid-flight
    sharded.fail_shard(0)
    run_to_completion(service)

    for job_id, ref_id in zip(ids, ref_ids):
        assert (sorted(service.status(job_id).result.output)
                == sorted(reference.status(ref_id).result.output))
    assert sharded.stats_snapshot().replica_fallback_reads > 0
    service.shutdown()
    reference.shutdown()


def test_service_takes_a_record_reader(tmp_path):
    """``reader=`` is the record format of the store's data.  A batch of
    the benchmark's ``sel_batch`` shape — six selections at three
    selectivities and two aggregations on sharded ``lineitem``, job *i*
    joining at iteration *i* — through a live service equals solo FIFO
    runs byte for byte (``agg`` folds float partial sums in rotated
    order once it joins mid-file, so it gets the e2e oracle's 1e-9)."""
    reader = DelimitedReader("|", len(LINEITEM_COLUMNS))
    rows = list(LineitemGenerator(seed=11).rows_for_bytes(40_000))
    directory = tmp_path / "lineitem"
    store = ShardedBlockStore.create(directory, rows, 2_500,
                                     num_shards=4, replication=2)

    def make_job(definition, job_id):
        if definition == "agg":
            return aggregation_job(job_id)
        return selection_job(job_id, quantity_threshold_for_selectivity(
            int(definition[3:]) / 100.0))

    batch = ("sel02", "sel05", "sel10", "sel02", "sel05", "sel10",
             "agg", "agg")
    config = ServiceConfig(execution=ExecutionConfig(
        blocks_per_segment=4, map_backend="threads", map_workers=2,
        cache_capacity_bytes=20_000, prefetch_depth=4))
    service = SchedulerService(store, config, reader=reader)
    try:
        for slot, definition in enumerate(batch):
            service.submit_at_iteration(make_job(definition, f"j{slot}"),
                                        slot)
        run_to_completion(service)
        tickets = [service.status(f"j{slot}") for slot in range(len(batch))]
    finally:
        service.shutdown()
    assert [t.start_block for t in tickets] == [
        4 * slot % store.num_blocks for slot in range(len(batch))]

    for definition, ticket in zip(batch, tickets):
        oracle = FifoLocalRunner(ShardedBlockStore(directory),
                                 reader=reader).run(
            [make_job(definition, "oracle")]).result("oracle").output
        output = ticket.result.output
        assert output, definition
        if definition != "agg":
            assert output == oracle
            continue
        assert [key for key, _ in output] == [key for key, _ in oracle]
        assert all(math.isclose(value, want, rel_tol=1e-9)
                   for (_, value), (_, want) in zip(output, oracle))
