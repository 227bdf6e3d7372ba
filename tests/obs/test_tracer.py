"""Tracer behaviour: spans, events, nesting depth, disabled fast path."""

import pytest

from repro.obs import NULL_TRACER, PHASE_INSTANT, PHASE_SPAN, Tracer


class StepClock:
    """Deterministic clock: advances by ``step`` on every reading."""

    def __init__(self, start: float = 0.0, step: float = 1.0) -> None:
        self.t = start
        self.step = step

    def __call__(self) -> float:
        now = self.t
        self.t += self.step
        return now


def test_span_records_on_exit_with_duration():
    tracer = Tracer(clock=StepClock())
    with tracer.span("map.wave", subject="w0", lane="main", blocks=3):
        pass
    (event,) = tracer.events()
    assert event.phase == PHASE_SPAN
    assert event.name == "map.wave"
    assert event.subject == "w0"
    assert event.lane == "main"
    assert event.ts == 0.0 and event.dur == 1.0
    assert event.args == {"blocks": 3}


def test_nested_spans_record_depth_and_inner_first():
    tracer = Tracer(clock=StepClock())
    with tracer.span("outer", lane="main"):
        with tracer.span("inner", lane="main"):
            pass
    inner, outer = tracer.events()
    assert (inner.name, inner.depth) == ("inner", 1)
    assert (outer.name, outer.depth) == ("outer", 0)
    # Inner span lies within the outer one.
    assert outer.ts <= inner.ts
    assert inner.ts + inner.dur <= outer.ts + outer.dur


def test_span_on_exception_records_error_and_restores_depth():
    tracer = Tracer(clock=StepClock())
    with pytest.raises(RuntimeError):
        with tracer.span("boom", lane="main"):
            raise RuntimeError("nope")
    (event,) = tracer.events()
    assert event.args["error"] == "RuntimeError"
    with tracer.span("after", lane="main"):
        pass
    assert tracer.events()[-1].depth == 0


def test_event_records_instant_at_clock_time():
    tracer = Tracer(clock=StepClock(start=7.0))
    tracer.event("io.wave", subject="iter_0", lane="main", blocks=2)
    (event,) = tracer.events()
    assert event.phase == PHASE_INSTANT
    assert event.ts == 7.0 and event.dur == 0.0
    assert event.args == {"blocks": 2}


def test_event_at_and_span_at_take_explicit_times():
    tracer = Tracer(clock=lambda: 0.0)
    tracer.event_at(3.5, "s3.pointer", subject="f", lane="s3")
    tracer.span_at("s3.segment", 1.0, 4.0, subject="it0", lane="s3", depth=1)
    instant, span = tracer.events()
    assert instant.ts == 3.5
    assert (span.ts, span.dur, span.depth) == (1.0, 3.0, 1)


def test_span_at_clamps_negative_duration():
    tracer = Tracer(clock=lambda: 0.0)
    event = tracer.span_at("x", 5.0, 4.0, lane="l")
    assert event is not None and event.dur == 0.0


def test_lane_defaults_to_thread_name():
    tracer = Tracer(clock=StepClock())
    tracer.event("e")
    assert tracer.events()[0].lane == "MainThread"


def test_disabled_tracer_records_nothing():
    tracer = Tracer(clock=StepClock(), enabled=False)
    with tracer.span("s"):
        tracer.event("e")
    tracer.event_at(1.0, "e2")
    tracer.span_at("s2", 0.0, 1.0)
    assert len(tracer) == 0
    assert tracer.events() == ()


def test_null_tracer_is_disabled_and_shared():
    assert not NULL_TRACER.enabled
    NULL_TRACER.event("ignored")
    assert len(NULL_TRACER) == 0


def test_spans_and_instants_views():
    tracer = Tracer(clock=StepClock())
    tracer.event("i1")
    with tracer.span("s1"):
        pass
    assert [e.name for e in tracer.spans()] == ["s1"]
    assert [e.name for e in tracer.instants()] == ["i1"]


def test_instants_filter_by_name_and_subject():
    tracer = Tracer(clock=StepClock())
    tracer.event("a", subject="x")
    tracer.event("a", subject="y")
    tracer.event("b", subject="x")
    tracer.span_at("a", 0.0, 1.0, subject="x")
    assert len(tracer.instants(name="a")) == 2
    assert len(tracer.instants(subject="x")) == 2
    assert [e.ts for e in tracer.instants(name="a", subject="x")] == [0.0]
    assert tracer.instants(name="missing") == []
    assert [e.dur for e in tracer.spans(name="a", subject="x")] == [1.0]
    assert tracer.spans(name="b") == []


def test_clear_keeps_enabled_state():
    tracer = Tracer(clock=StepClock())
    tracer.event("e")
    tracer.clear()
    assert len(tracer) == 0 and tracer.enabled


def test_args_mapping_merges_with_extras():
    tracer = Tracer(clock=StepClock())
    tracer.event("e", args={"a": 1}, b=2)
    assert tracer.events()[0].args == {"a": 1, "b": 2}
