"""Utilization analytics tests."""

import pytest

from repro.common.errors import ExperimentError
from repro.metrics.utilization import (
    busy_slots_series,
    render_gantt,
    render_utilization_strip,
    slot_utilization,
    task_spans,
)
from repro.obs import Tracer


def sim_tracer() -> Tracer:
    return Tracer(name="sim", clock=lambda: 0.0)


def synthetic_trace() -> Tracer:
    """Two map tasks on two nodes: n0 busy 0-10, n1 busy 5-10."""
    tracer = sim_tracer()
    tracer.span_at("task.map", 0.0, 10.0, subject="a", lane="n0",
                   outcome="finish")
    tracer.span_at("task.map", 5.0, 10.0, subject="b", lane="n1",
                   outcome="finish")
    tracer.span_at("task.reduce", 10.0, 12.0, subject="r", lane="n0",
                   outcome="finish")
    return tracer


def test_task_spans_extracted():
    spans = task_spans(synthetic_trace())
    assert len(spans) == 2
    by_id = {s.subject: s for s in spans}
    assert by_id["a"].dur == 10.0
    assert by_id["b"].ts == 5.0
    assert [s.subject for s in task_spans(synthetic_trace(), "reduce")] == ["r"]
    with pytest.raises(ExperimentError, match="'map' or 'reduce'"):
        task_spans(synthetic_trace(), "shuffle")


def test_failed_and_killed_count_as_occupancy():
    tracer = sim_tracer()
    tracer.span_at("task.map", 0.0, 4.0, subject="a", lane="n0",
                   outcome="fail")
    tracer.span_at("task.map", 5.0, 6.0, subject="b", lane="n1",
                   outcome="killed")
    spans = task_spans(tracer)
    assert {(s.subject, s.dur) for s in spans} == {
        ("a", 4.0), ("b", 1.0)}


def test_slot_utilization_fraction():
    # 2 slots over 10s window; busy = 10 + 5 = 15 slot-seconds of 20.
    assert slot_utilization(synthetic_trace(), 2) == pytest.approx(0.75)


def test_slot_utilization_with_window():
    util = slot_utilization(synthetic_trace(), 2, start=0.0, end=5.0)
    assert util == pytest.approx(0.5)  # only task a busy in [0,5)


def test_slot_utilization_validation():
    with pytest.raises(ExperimentError):
        slot_utilization(synthetic_trace(), 0)


def test_busy_slots_series_shape():
    times, series = busy_slots_series(synthetic_trace(), bins=10)
    assert len(times) == len(series) == 10
    assert series[0] == pytest.approx(1.0)   # only task a
    assert series[-1] == pytest.approx(2.0)  # both tasks


def test_render_strip_and_gantt():
    strip = render_utilization_strip(synthetic_trace(), 2, width=20)
    assert len(strip) == 20
    gantt = render_gantt(synthetic_trace(), width=40)
    assert "n0" in gantt and "n1" in gantt and "#" in gantt


def test_empty_trace_renders_placeholder():
    assert render_gantt(sim_tracer()) == "(no tasks)"
    assert busy_slots_series(sim_tracer()) == ([], [])


def test_real_simulation_utilization(small_cluster_config, small_dfs_config,
                                     fast_profile, job_factory):
    """A single job saturates map slots during its map phase."""
    from repro.mapreduce.costmodel import CostModel
    from repro.mapreduce.driver import SimulationDriver
    from repro.schedulers.fifo import FifoScheduler

    driver = SimulationDriver(
        FifoScheduler(), cluster_config=small_cluster_config,
        dfs_config=small_dfs_config,
        cost_model=CostModel(job_submit_overhead_s=0.0))
    driver.register_file("f", 64.0 * 32)
    driver.submit_all(job_factory(fast_profile, 1), [0.0])
    result = driver.run()
    util = slot_utilization(result.tracer, 8, kind="map")
    assert util > 0.95
