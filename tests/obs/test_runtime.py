"""TraceSession: adoption, nesting, export of multiple clock domains."""

import json

from repro.obs import TraceSession, Tracer, active_session


def test_no_session_by_default():
    assert active_session() is None


def test_session_activation_and_nesting():
    with TraceSession("outer") as outer:
        assert active_session() is outer
        with TraceSession("inner") as inner:
            assert active_session() is inner  # innermost wins
        assert active_session() is outer
    assert active_session() is None


def test_session_owns_a_tracer_and_adopts_more():
    session = TraceSession("s")
    assert session.tracers() == (session.tracer,)
    extra = Tracer(name="sim", clock=lambda: 0.0)
    session.adopt(extra)
    session.adopt(extra)  # idempotent
    assert session.tracers() == (session.tracer, extra)


def test_adopt_renames_duplicate_tracer_names():
    # One simulator per sweep point, each with a tracer called "sim" on
    # its own virtual clock: exporting them under one name would merge
    # unrelated timelines, so adoption suffixes #2, #3, ...
    session = TraceSession("s")
    first = session.adopt(Tracer(name="sim", clock=lambda: 0.0))
    second = session.adopt(Tracer(name="sim", clock=lambda: 0.0))
    third = session.adopt(Tracer(name="sim", clock=lambda: 0.0))
    assert first.name == "sim"
    assert second.name == "sim#2"
    assert third.name == "sim#3"
    session.adopt(second)  # re-adoption does not rename again
    assert second.name == "sim#2"


def test_new_tracer_is_adopted_and_enabled():
    session = TraceSession("s")
    tracer = session.new_tracer("worker", clock=lambda: 1.0)
    assert tracer.enabled
    assert tracer in session.tracers()


def test_event_count_spans_all_tracers():
    session = TraceSession("s")
    session.tracer.event("a")
    session.new_tracer("t2", clock=lambda: 0.0).event("b")
    assert session.event_count() == 2


def test_export_writes_every_adopted_tracer(tmp_path):
    session = TraceSession("s")
    sim = session.new_tracer("sim", clock=lambda: 2.0)
    sim.event("job.submit", subject="j1", lane="events")
    session.tracer.event("experiment.start", lane="main")
    path = session.export(tmp_path / "out.trace.json")
    document = json.loads(path.read_text(encoding="utf-8"))
    names = {e["name"] for e in document["traceEvents"]}
    assert {"job.submit", "experiment.start"} <= names
    processes = {e["args"]["name"] for e in document["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
    assert {"s", "sim"} <= processes


def test_summary_renders_counts():
    session = TraceSession("s")
    session.tracer.event("io.wave")
    text = session.summary()
    assert "1 events" in text and "io.wave" in text
