"""MetricsRegistry: counters, gauges, histograms, ReadStats absorption."""

import dataclasses
import threading

import pytest

from repro.common.errors import ExecutionError
from repro.localrt.storage import ReadStats
from repro.obs import MetricsRegistry
from repro.obs.metrics import Counter, Gauge, Histogram


def test_counter_accumulates_and_rejects_decrease():
    registry = MetricsRegistry()
    counter = registry.counter("io.blocks_read")
    counter.inc(4)
    counter.inc()
    assert registry.counter("io.blocks_read").value == 5
    with pytest.raises(ExecutionError, match="cannot decrease"):
        counter.inc(-1)


def test_gauge_moves_both_ways():
    registry = MetricsRegistry()
    gauge = registry.gauge("prefetch.ahead")
    gauge.set(3.0)
    gauge.add(-1.0)
    assert gauge.value == 2.0


def test_histogram_buckets_and_mean():
    registry = MetricsRegistry()
    hist = registry.histogram("wave.blocks", buckets=(1.0, 4.0, 16.0))
    for value in (1, 2, 4, 5, 100):
        hist.observe(value)
    assert hist.counts == [1, 2, 1, 1]  # <=1, <=4, <=16, overflow
    assert hist.count == 5
    assert hist.mean == pytest.approx(112 / 5)


def test_histogram_rejects_bad_buckets():
    registry = MetricsRegistry()
    with pytest.raises(ExecutionError, match="strictly increase"):
        registry.histogram("bad", buckets=(4.0, 4.0))
    with pytest.raises(ExecutionError, match="at least one"):
        registry.histogram("empty", buckets=())


def test_kind_collision_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ExecutionError, match="is a counter, not a gauge"):
        registry.gauge("x")


def test_absorb_read_stats_registers_all_fields_including_zero():
    registry = MetricsRegistry()
    delta = ReadStats(blocks_read=3, bytes_read=120)
    registry.absorb_read_stats(delta)
    snap = registry.snapshot()
    assert snap["io.blocks_read"] == 3
    assert snap["io.bytes_read"] == 120
    # A field that did not move is still present as an explicit zero.
    assert snap["io.view_blocks_read"] == 0
    registry.absorb_read_stats(ReadStats(blocks_read=2))
    assert registry.counter("io.blocks_read").value == 5


def test_snapshot_and_format_table():
    registry = MetricsRegistry()
    registry.counter("a").inc(2)
    registry.gauge("b").set(1.5)
    registry.histogram("c", buckets=(1.0,)).observe(0.5)
    snap = registry.snapshot()
    assert snap["a"] == 2 and snap["b"] == 1.5
    assert snap["c"]["count"] == 1
    # Buckets only: the one quantile definition is exact_percentile.
    assert set(snap["c"]) == {"buckets", "counts", "total", "count"}
    table = registry.format_table()
    assert "a" in table and "count=1" in table
    assert len(registry) == 3


def test_empty_registry_table():
    assert MetricsRegistry().format_table() == "(no metrics recorded)"


def test_instruments_preserves_kinds_sorted():
    registry = MetricsRegistry()
    registry.gauge("b.gauge")
    registry.counter("a.counter")
    registry.histogram("c.hist", buckets=(1.0,))
    instruments = registry.instruments()
    assert list(instruments) == ["a.counter", "b.gauge", "c.hist"]
    assert isinstance(instruments["a.counter"], Counter)
    assert isinstance(instruments["b.gauge"], Gauge)
    assert isinstance(instruments["c.hist"], Histogram)


# ---------------------------------------------------------------------------
# Concurrency (run under REPRO_RACECHECK=1 / REPRO_LOCKCHECK=1 in CI)


def test_registry_concurrent_updates_and_snapshots():
    registry = MetricsRegistry()
    rounds = 200
    errors: list[BaseException] = []

    def writer() -> None:
        try:
            for i in range(rounds):
                registry.counter("shared.counter").inc()
                registry.gauge("shared.gauge").add(1.0)
                registry.histogram("shared.hist",
                                   buckets=(1.0, 4.0)).observe(i % 5)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def reader() -> None:
        try:
            for _ in range(rounds):
                registry.snapshot()
                registry.instruments()
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    threads += [threading.Thread(target=reader) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert registry.counter("shared.counter").value == 4 * rounds
    assert registry.gauge("shared.gauge").value == pytest.approx(4 * rounds)
    assert registry.histogram("shared.hist",
                              buckets=(1.0, 4.0)).count == 4 * rounds


# ---------------------------------------------------------------------------
# absorb_read_stats with the sharded-store fields


def test_absorb_read_stats_covers_sharded_fields():
    registry = MetricsRegistry()
    delta = ReadStats(blocks_read=2, bytes_read=64,
                      replica_fallback_reads=1)
    registry.absorb_read_stats(delta)
    snap = registry.snapshot()
    assert snap["io.replica_fallback_reads"] == 1
    # Every ReadStats field lands as a counter, none silently dropped.
    for field in dataclasses.fields(ReadStats):
        assert f"io.{field.name}" in snap
