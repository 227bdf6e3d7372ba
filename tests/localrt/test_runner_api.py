"""Runner construction surface: everything goes through ExecutionConfig."""

import json
import tempfile
from pathlib import Path

import pytest

from repro.common.config import ExecutionConfig, TraceConfig
from repro.common.errors import ExecutionError
from repro.localrt.jobs import wordcount_job
from repro.localrt.records import TextLineReader
from repro.localrt.runners import FifoLocalRunner, SharedScanRunner
from repro.obs import NULL_TRACER, TraceSession, Tracer


@pytest.fixture(scope="module")
def store():
    from repro.localrt.storage import BlockStore
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
    assert runner.prefetch_depth == 0
    assert runner.tracer is NULL_TRACER


def test_config_drives_every_knob(store):
    config = ExecutionConfig(map_backend="serial", blocks_per_segment=2,
                             cache_capacity_bytes=1 << 20, prefetch_depth=2)
    runner = SharedScanRunner(store, config)
    assert runner.blocks_per_segment == 2
    assert runner.prefetch_depth == 2
    assert store.cache is not None
    report = runner.run(jobs())
    assert report.result("wc").output


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
