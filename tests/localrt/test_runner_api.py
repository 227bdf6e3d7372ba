"""Runner construction surface: everything goes through ExecutionConfig."""

import json
import tempfile
import threading
from pathlib import Path

import pytest

from repro.common.config import ExecutionConfig, TraceConfig
from repro.common.errors import ExecutionError
from repro.localrt.jobs import wordcount_job
from repro.localrt.output import write_output
from repro.localrt.records import TextLineReader
from repro.localrt.runners import FifoLocalRunner, SharedScanRunner
from repro.localrt.sharded import ShardedBlockStore
from repro.localrt.storage import BlockStore
from repro.obs import NULL_TRACER, TraceSession, Tracer
from repro.service import SchedulerService, ServiceConfig


@pytest.fixture(scope="module")
def store():
    with tempfile.TemporaryDirectory() as tmp:
        lines = [f"the cat number {i} sat" for i in range(120)]
        yield BlockStore.create(Path(tmp) / "c", lines,
                                block_size_bytes=256)


def jobs():
    return [wordcount_job("wc", ".*")]


# ----------------------------------------------------------- canonical path
def test_default_construction_uses_config_defaults(store):
    runner = SharedScanRunner(store)
    assert runner.blocks_per_segment == ExecutionConfig().blocks_per_segment
    assert runner.tracer is NULL_TRACER


def test_config_drives_every_knob(store):
    config = ExecutionConfig(map_backend="serial", blocks_per_segment=2)
    runner = SharedScanRunner(store, config)
    assert runner.blocks_per_segment == 2
    report = runner.run(jobs())
    assert report.result("wc").output


# ----------------------------------------------------------- ignored knobs
def _outputs_and_io(front_end, directory, config):
    """Run three jobs through ``front_end`` on a fresh handle on
    ``directory``; return each job's part-file bytes and the handle's
    full ``ReadStats``."""
    store = BlockStore(directory)
    batch = [wordcount_job("wc", ".*"), wordcount_job("at", "^.at$"),
             wordcount_job("per-record", "^s.*", batched=False)]
    if front_end == "fifo":
        results = FifoLocalRunner(store, config).run(batch).results
    elif front_end == "shared":
        results = SharedScanRunner(store, config).run(
            batch, {"wc": 0, "at": 1, "per-record": 3}).results
    else:
        service = SchedulerService(store, ServiceConfig(execution=config))
        for job in batch:
            service.submit(job, tenant="t")
        while service.step():
            pass
        results = dict(service.results())
        service.shutdown()
    parts = {}
    with tempfile.TemporaryDirectory() as out:
        for job_id, result in sorted(results.items()):
            write_output(result, Path(out) / job_id)
            parts[job_id] = {path.name: path.read_bytes() for path in
                             sorted((Path(out) / job_id).iterdir())}
    return parts, store.stats_snapshot()


@pytest.mark.parametrize("front_end", ["fifo", "shared", "service"])
def test_cache_and_prefetch_knobs_change_nothing(store, monkeypatch,
                                                 front_end):
    """``cache_capacity_bytes`` and ``prefetch_depth`` are validated and
    ignored: the same part files, the same full ``ReadStats``, and no
    thread started during or left after the run."""
    baseline = _outputs_and_io(front_end, store.directory,
                               ExecutionConfig(blocks_per_segment=2))
    started = []
    real_start = threading.Thread.start

    def record_start(thread):
        started.append(thread.name)
        real_start(thread)

    before = set(threading.enumerate())
    monkeypatch.setattr(threading.Thread, "start", record_start)
    knobbed = _outputs_and_io(front_end, store.directory, ExecutionConfig(
        blocks_per_segment=2, cache_capacity_bytes=store.total_bytes // 2,
        prefetch_depth=4))
    assert started == []
    assert set(threading.enumerate()) == before
    assert knobbed == baseline
    parts, io = knobbed
    assert len(parts) == 3 and all(parts.values())
    assert io.blocks_read == io.physical_blocks_read + io.view_blocks_read


@pytest.mark.parametrize("kind", ["single", "sharded"])
def test_ensure_cache_is_a_validated_no_op(tmp_path, kind):
    lines = [f"the cat number {i} sat" for i in range(120)]
    if kind == "single":
        store = BlockStore.create(tmp_path / "s", lines, 256)
    else:
        store = ShardedBlockStore.create(tmp_path / "s", lines, 256,
                                         num_shards=3, replication=2)
    store.read_block_bytes(0)
    before = store.stats_snapshot()
    store.ensure_cache(1 << 20)
    store.ensure_cache(1)
    assert store.stats_snapshot() == before
    with pytest.raises(ExecutionError, match="positive"):
        store.ensure_cache(0)


def test_config_type_is_checked(store):
    with pytest.raises(ExecutionError, match="ExecutionConfig"):
        SharedScanRunner(store, {"blocks_per_segment": 2})
    # The reader is keyword-only: a positional one lands in the config
    # slot and is refused, not silently adopted.
    with pytest.raises(ExecutionError, match="ExecutionConfig"):
        FifoLocalRunner(store, TextLineReader())


def test_untraced_run_reports_no_trace_or_metrics(store):
    report = FifoLocalRunner(store).run(jobs())
    assert report.trace_path is None
    assert report.metrics is None


def test_trace_config_records_and_exports(tmp_path, store):
    trace_path = tmp_path / "run.trace.json"
    config = ExecutionConfig(
        blocks_per_segment=2,
        trace=TraceConfig(enabled=True, path=str(trace_path)))
    report = SharedScanRunner(store, config).run(jobs())
    assert report.trace_path == str(trace_path)
    document = json.loads(trace_path.read_text(encoding="utf-8"))
    names = {e.get("name") for e in document["traceEvents"]}
    assert {"s3.run", "s3.iteration", "map.wave", "reduce.job",
            "io.wave"} <= names
    # Per-wave I/O deltas were folded into the run's metrics registry.
    assert report.metrics is not None
    snapshot = report.metrics.snapshot()
    assert snapshot["io.blocks_read"] == report.blocks_read
    assert snapshot["wave.blocks"]["count"] == report.iterations


def test_trace_enabled_without_path_keeps_events_in_memory(store):
    config = ExecutionConfig(trace=TraceConfig(enabled=True))
    runner = FifoLocalRunner(store, config)
    report = runner.run(jobs())
    assert report.trace_path is None
    assert report.metrics is not None
    assert len(runner.tracer) > 0
    assert any(e.name == "fifo.job" for e in runner.tracer.spans())


def test_explicit_tracer_wins(store):
    tracer = Tracer(name="mine")
    runner = SharedScanRunner(store, tracer=tracer)
    assert runner.tracer is tracer
    runner.run(jobs())
    assert any(e.name == "s3.run" for e in tracer.spans())


def test_active_session_supplies_tracer(store):
    with TraceSession("outer") as session:
        runner = SharedScanRunner(store)
        assert runner.tracer in session.tracers()
        runner.run(jobs())
        assert session.event_count() > 0
