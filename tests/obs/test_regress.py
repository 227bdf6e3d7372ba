"""Perf-regression gate: spec validation, comparisons, rendering, CLI."""

import json

import pytest

from repro.obs.cli import main
from repro.obs.regress import (DEFAULT_SPECS, MetricSpec, compare,
                               format_regression, lookup, specs_for)


def one(path="m", direction="eq", **kwargs):
    return (MetricSpec(path, direction, **kwargs),)


def test_spec_rejects_bad_direction_and_negative_tolerance():
    with pytest.raises(ValueError):
        MetricSpec("m", "lt")
    with pytest.raises(ValueError):
        MetricSpec("m", "le", rel_tol=-0.1)


def test_lookup_dotted_path():
    doc = {"a": {"b": {"c": 7}}, "x": 1}
    assert lookup(doc, "a.b.c") == 7
    assert lookup(doc, "x") == 1
    assert lookup(doc, "a.b.missing") is None
    assert lookup(doc, "x.deeper") is None


def test_direction_le_allows_improvement_and_slack():
    specs = one(direction="le", abs_tol=2.0)
    assert compare("n", {"m": 10}, {"m": 5}, specs).ok      # improved
    assert compare("n", {"m": 10}, {"m": 12}, specs).ok     # within slack
    assert not compare("n", {"m": 10}, {"m": 13}, specs).ok


def test_direction_ge_allows_improvement_and_slack():
    specs = one(direction="ge", rel_tol=0.1)
    assert compare("n", {"m": 10.0}, {"m": 11.0}, specs).ok
    assert compare("n", {"m": 10.0}, {"m": 9.0}, specs).ok
    assert not compare("n", {"m": 10.0}, {"m": 8.9}, specs).ok


def test_direction_eq_is_two_sided():
    specs = one(abs_tol=0.5)
    assert compare("n", {"m": 1.0}, {"m": 1.4}, specs).ok
    assert not compare("n", {"m": 1.0}, {"m": 1.6}, specs).ok
    assert not compare("n", {"m": 1.0}, {"m": 0.4}, specs).ok


def test_slack_is_max_of_rel_and_abs():
    specs = one(direction="le", rel_tol=0.1, abs_tol=3.0)
    assert compare("n", {"m": 10.0}, {"m": 13.0}, specs).ok  # abs wins
    assert compare("n", {"m": 100.0}, {"m": 110.0}, specs).ok  # rel wins
    assert not compare("n", {"m": 100.0}, {"m": 111.0}, specs).ok


def test_missing_metric_required_vs_optional():
    required = compare("n", {"m": 1}, {}, one())
    assert not required.ok
    assert "missing in current" in required.results[0].detail
    optional = compare("n", {}, {"m": 1}, one(required=False))
    assert optional.ok
    assert optional.results[0].skipped


def test_boolean_invariants_compare_exactly():
    assert compare("n", {"m": True}, {"m": True}, one()).ok
    report = compare("n", {"m": True}, {"m": False}, one())
    assert not report.ok


def test_skipped_marker_string_is_host_difference_not_regression():
    # Baseline recorded on a host where the check could not run.
    skipped = "skipped (single CPU)"
    report = compare("n", {"m": skipped}, {"m": True}, one())
    assert report.ok and report.results[0].skipped
    # ... unless the current run actively fails the check.
    report = compare("n", {"m": skipped}, {"m": False}, one())
    assert not report.ok


def test_non_numeric_values_fail_rather_than_pass_silently():
    assert not compare("n", {"m": [1]}, {"m": [1]}, one()).ok


def test_format_regression_table():
    report = compare("n", {"good": 1.0, "bad": 1.0},
                     {"good": 1.0, "bad": 2.0},
                     (MetricSpec("good"), MetricSpec("bad"),
                      MetricSpec("opt", required=False)))
    text = format_regression(report)
    assert "REGRESSED" in text
    assert "[  ok] good" in text
    assert "[FAIL] bad" in text
    assert "[skip] opt" in text


def test_default_specs_gate_no_wall_clock_seconds():
    for specs in DEFAULT_SPECS.values():
        for spec in specs:
            assert not spec.path.endswith("_s")
            assert "seconds" not in spec.path
            # ... nor ratios of wall-clock times.
            assert "speedup" not in spec.path
            assert "overhead" not in spec.path


def test_specs_for_unknown_benchmark_raises():
    assert specs_for({"benchmark": "bench_cache"}) \
        == DEFAULT_SPECS["bench_cache"]
    with pytest.raises(ValueError):
        specs_for({"benchmark": "bench_unknown"})


# ----------------------------------------------------------------- CLI gate

def _payload(tmp_path, name, **overrides):
    doc = {"benchmark": "bench_trace",
           "checks": {"traced_io_counters_identical": True,
                      "traced_outputs_identical": True},
           "traced_events": 100}
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_cli_regress_ok(tmp_path, capsys):
    base = _payload(tmp_path, "base.json")
    cur = _payload(tmp_path, "cur.json", traced_events=120)
    assert main(["regress", str(base), str(cur)]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_regress_detects_regression(tmp_path, capsys):
    base = _payload(tmp_path, "base.json")
    cur = _payload(tmp_path, "cur.json",
                   checks={"traced_io_counters_identical": False,
                           "traced_outputs_identical": True})
    assert main(["regress", str(base), str(cur)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSED" in out and "traced_io_counters_identical" in out


def test_cli_regress_json_output(tmp_path, capsys):
    base = _payload(tmp_path, "base.json")
    cur = _payload(tmp_path, "cur.json")
    assert main(["regress", "--json", str(base), str(cur)]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["ok"] is True
    assert any(r["path"] == "traced_events" for r in document["results"])


def test_cli_regress_bad_payload_exits_2(tmp_path, capsys):
    base = _payload(tmp_path, "base.json")
    missing = tmp_path / "nope.json"
    assert main(["regress", str(base), str(missing)]) == 2
    assert "error:" in capsys.readouterr().err
