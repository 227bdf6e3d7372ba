"""Open-loop driver pacing and arrival-stream construction."""

import pytest

from repro.common.errors import WorkloadError
from repro.localrt.jobs import wordcount_job
from repro.workloads.arrivals import (
    ArrivalEvent,
    merge_streams,
    poisson_streams,
)


def test_merge_streams_orders_and_indexes():
    events = merge_streams({"b": [0.0, 2.0], "a": [1.0, 1.0]})
    assert [(e.time, e.tenant, e.index) for e in events] == [
        (0.0, "b", 0), (1.0, "a", 0), (1.0, "a", 1), (2.0, "b", 1)]


def test_merge_streams_tie_break_is_name_order():
    events = merge_streams({"z": [5.0], "a": [5.0]})
    assert [e.tenant for e in events] == ["a", "z"]


def test_poisson_streams_deterministic_and_decorrelated():
    one = poisson_streams({"a": 1.0, "b": 1.0}, 5, seed=42)
    two = poisson_streams({"a": 1.0, "b": 1.0}, 5, seed=42)
    assert one == two
    times_a = [e.time for e in one if e.tenant == "a"]
    times_b = [e.time for e in one if e.tenant == "b"]
    assert times_a != times_b  # independent draws per tenant
    # Adding a tenant must not perturb existing tenants' schedules.
    three = poisson_streams({"a": 1.0, "b": 1.0, "c": 9.0}, 5, seed=42)
    assert [e.time for e in three if e.tenant == "a"] == times_a


def test_stream_validation():
    with pytest.raises(WorkloadError):
        merge_streams({})
    with pytest.raises(WorkloadError):
        merge_streams({"a": [2.0, 1.0]})  # not monotone
    with pytest.raises(WorkloadError):
        ArrivalEvent(time=-1.0, tenant="a", index=0)


def test_driver_paces_with_injected_clock(store):
    """The driver sleeps exactly the scaled gaps (no real time needed)."""
    from repro.common.clock import FakeClock
    from repro.service.config import ServiceConfig
    from repro.service.core import SchedulerService
    from repro.service.driver import OpenLoopDriver

    clock = FakeClock()
    sleeps = []

    def fake_sleep(seconds):
        sleeps.append(round(seconds, 6))
        clock.advance(seconds)

    events = merge_streams({"t": [0.0, 2.0, 5.0]})
    service = SchedulerService(store, ServiceConfig())

    def factory(event):
        return wordcount_job(f"j{event.index}", r"alpha")

    driver = OpenLoopDriver(service, events, factory, time_scale=0.5,
                            clock=clock, sleep=fake_sleep)
    report = driver.run()
    assert report.submitted == ["j0", "j1", "j2"]
    assert sleeps == [1.0, 1.5]  # gaps 2s and 3s, scaled by 0.5
    assert report.elapsed_s == pytest.approx(2.5)
    # Jobs queued pre-start; drive them inline and shut down cleanly.
    while service.step():
        pass
    assert service.status("j2").status.value == "done"
    service.shutdown()


def test_driver_validation(store):
    from repro.service.config import ServiceConfig
    from repro.service.core import SchedulerService
    from repro.service.driver import OpenLoopDriver, replay_iterations

    service = SchedulerService(store, ServiceConfig())
    events = merge_streams({"t": [0.0]})

    def factory(event):
        return wordcount_job("j", r"a")

    with pytest.raises(WorkloadError):
        OpenLoopDriver(service, [], factory)
    with pytest.raises(WorkloadError):
        OpenLoopDriver(service, events, factory, time_scale=0.0)
    with pytest.raises(WorkloadError):
        replay_iterations(service, events, factory, iterations_per_second=0)
    service.shutdown()
