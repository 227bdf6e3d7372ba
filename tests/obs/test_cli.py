"""``python -m repro.obs`` CLI: summary and analyze subcommands."""

import json
import pathlib

import pytest

from repro.obs import Tracer, export_chrome
from repro.obs.cli import main


@pytest.fixture()
def trace_file(tmp_path):
    tracer = Tracer(name="t", clock=lambda: 0.0)
    tracer.span_at("map.wave", 0.0, 2.0, lane="main", blocks=3)
    tracer.event_at(1.0, "io.wave", subject="iter_0", lane="main")
    path = tmp_path / "run.trace.json"
    export_chrome(path, [tracer])
    return path


def test_summary_table(trace_file, capsys):
    assert main(["summary", str(trace_file)]) == 0
    out = capsys.readouterr().out
    assert "2 events" in out
    assert "map.wave" in out and "io.wave" in out


def test_summary_json(trace_file, capsys):
    assert main(["summary", "--json", str(trace_file)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["events"] == 2
    assert summary["names"]["map.wave"]["count"] == 1


def test_summary_missing_file_exits_2(tmp_path, capsys):
    assert main(["summary", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_summary_corrupt_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.trace.json"
    bad.write_text("{oops", encoding="utf-8")
    assert main(["summary", str(bad)]) == 2
    assert "unreadable" in capsys.readouterr().err


GOLDEN_TRACE = pathlib.Path(__file__).parent / "golden" / "analyze.trace.json"


def test_analyze_text_report(capsys):
    assert main(["analyze", str(GOLDEN_TRACE)]) == 0
    out = capsys.readouterr().out
    assert "critical path" in out
    assert "scan-sharing attribution" in out
    assert "sharing_ratio=2.00x" in out


def test_analyze_json_report(capsys):
    assert main(["analyze", str(GOLDEN_TRACE), "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    ratios = {r["tracer"]: r["sharing_ratio"] for r in document["sharing"]}
    assert ratios["shared"] > ratios["fifo"] == 1.0


def test_analyze_honors_bins_and_straggler_k(capsys):
    assert main(["analyze", str(GOLDEN_TRACE), "--format", "json",
                 "--bins", "10", "--straggler-k", "1.1"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert all(len(series["values"]) == 10
               for series in document["utilization"].values())


def test_analyze_missing_file_exits_2(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_module_entry_point(trace_file):
    import subprocess
    import sys
    result = subprocess.run(
        [sys.executable, "-m", "repro.obs", "summary", str(trace_file)],
        capture_output=True, text=True, check=False)
    assert result.returncode == 0
    assert "2 events" in result.stdout
