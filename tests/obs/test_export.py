"""Exporter: golden Chrome trace, roundtrip, summaries, bad input."""

import io
import json
import pathlib

import pytest

from repro.common.errors import ExperimentError
from repro.obs import (
    Tracer,
    chrome_events,
    export_chrome,
    format_summary,
    load_events,
    summarize,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "sample.trace.json"


class StepClock:
    def __init__(self, start: float = 0.0, step: float = 0.25) -> None:
        self.t = start
        self.step = step

    def __call__(self) -> float:
        now = self.t
        self.t += self.step
        return now


def sample_tracers() -> list[Tracer]:
    """A small deterministic two-clock-domain scenario."""
    sim = Tracer(name="sim", clock=lambda: 0.0)
    sim.event_at(0.0, "job.submit", subject="j1", lane="events", file="f")
    sim.event_at(2.0, "s3.pointer", subject="f", lane="events", pointer=4)
    sim.span_at("s3.segment", 0.0, 4.0, subject="it_0", lane="s3", blocks=4)
    sim.span_at("s3.map_wave", 0.0, 3.0, subject="it_0", lane="s3", depth=1)
    wall = Tracer(name="shared-scan", clock=StepClock())
    with wall.span("map.wave", lane="main", blocks=2):
        with wall.span("map.task", subject="block_0", lane="main"):
            pass
    wall.event("io.wave", subject="iter_0", lane="main", blocks=2)
    return [sim, wall]


def test_chrome_export_matches_golden_file():
    """Byte-identical output for identical runs (pins ordering + format)."""
    handle = io.StringIO()
    count = export_chrome(handle, sample_tracers())
    assert count == 7
    assert handle.getvalue() == GOLDEN.read_text(encoding="utf-8")


def test_chrome_events_shape_and_order():
    events = chrome_events(sample_tracers())
    meta = [e for e in events if e["ph"] == "M"]
    data = [e for e in events if e["ph"] != "M"]
    # One process_name per tracer plus one thread_name per lane.
    names = {(e["name"], e["args"]["name"]) for e in meta}
    assert ("process_name", "sim") in names
    assert ("process_name", "shared-scan") in names
    assert ("thread_name", "s3") in names
    # Data records carry ph/ts and dur (spans) or s (instants), in
    # microseconds, sorted by (pid, tid, ts, depth, name, index).
    for event in data:
        assert event["ph"] in ("X", "i")
        assert "ts" in event and "cat" in event
        assert ("dur" in event) == (event["ph"] == "X")
        if event["ph"] == "i":
            assert event["s"] == "t"
    keys = [(e["pid"], e["tid"], e["ts"]) for e in data]
    assert keys == sorted(keys)
    segment = next(e for e in data if e["name"] == "s3.segment")
    assert segment["ts"] == 0.0 and segment["dur"] == 4_000_000.0
    assert segment["args"] == {"blocks": 4, "subject": "it_0"}


def test_chrome_roundtrip_via_load_events(tmp_path):
    path = tmp_path / "t.trace.json"
    export_chrome(path, sample_tracers())
    events = load_events(path)
    assert len(events) == 7
    by_name = {e["name"]: e for e in events}
    # Seconds restored, lane/tracer names resolved from metadata.
    assert by_name["s3.segment"]["dur"] == pytest.approx(4.0)
    assert by_name["s3.segment"]["lane"] == "s3"
    assert by_name["s3.segment"]["tracer"] == "sim"
    assert by_name["job.submit"]["subject"] == "j1"
    assert by_name["job.submit"]["args"] == {"file": "f"}


def test_exported_chrome_is_valid_json(tmp_path):
    path = tmp_path / "t.trace.json"
    export_chrome(path, sample_tracers())
    document = json.loads(path.read_text(encoding="utf-8"))
    assert document["displayTimeUnit"] == "ms"
    assert isinstance(document["traceEvents"], list)


def test_summarize_and_format():
    events = [
        {"ph": "X", "name": "map.wave", "ts": 0.0, "dur": 2.0,
         "lane": "main", "tracer": "t", "subject": "", "args": {}},
        {"ph": "X", "name": "map.wave", "ts": 2.0, "dur": 1.0,
         "lane": "main", "tracer": "t", "subject": "", "args": {}},
        {"ph": "i", "name": "io.wave", "ts": 3.0, "dur": 0.0,
         "lane": "main", "tracer": "t", "subject": "", "args": {}},
    ]
    summary = summarize(events)
    assert summary["events"] == 3
    assert summary["spans"] == 2 and summary["instants"] == 1
    assert summary["lanes"] == 1
    assert summary["span_seconds"] == pytest.approx(3.0)
    assert summary["names"]["map.wave"]["count"] == 2
    assert summary["names"]["map.wave"]["max_dur"] == pytest.approx(2.0)
    text = format_summary(summary)
    assert "3 events" in text and "map.wave" in text


def test_summarize_empty():
    summary = summarize([])
    assert summary["events"] == 0 and summary["span_seconds"] == 0.0
    assert format_summary(summary).startswith("0 events")


def test_load_events_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.trace.json"
    for text in (
        "{not json",
        # A JSONL stream: Chrome JSON is the only trace encoding.
        '{"name": "a", "ph": "i", "ts": 0.0}\n'
        '{"name": "b", "ph": "i", "ts": 1.0}\n',
        '{"name": "a", "ph": "i", "ts": 0.0}\n',
        "42",
    ):
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(ExperimentError,
                           match=f"unreadable trace file {bad}"):
            load_events(bad)


def test_load_events_empty_file(tmp_path):
    empty = tmp_path / "empty.trace.json"
    empty.write_text("", encoding="utf-8")
    assert load_events(empty) == []
