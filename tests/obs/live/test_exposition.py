"""Prometheus exposition: encoder determinism, strict parser, golden pin."""

import math
import pathlib

import pytest

from repro.common.clock import FakeClock
from repro.common.errors import ExecutionError
from repro.obs.live.exposition import (
    MetricFamily,
    Sample,
    format_value,
    parse_exposition,
    registry_families,
    render_families,
    samples_by_name,
    sanitize_metric_name,
    telemetry_families,
)
from repro.obs.live.slo import SLOConfig
from repro.obs.live.telemetry import ServiceTelemetry
from repro.obs.metrics import MetricsRegistry

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden"


def build_golden_exposition() -> str:
    """Deterministic registry + telemetry body pinned by the golden file."""
    clock = FakeClock()
    registry = MetricsRegistry()
    registry.counter("io.blocks_read").inc(7)
    registry.gauge("cache.depth").set(2.5)
    hist = registry.histogram("wave.blocks", buckets=(1.0, 4.0))
    for value in (0.5, 2.0, 9.0):
        hist.observe(value)
    telemetry = ServiceTelemetry(
        horizon_s=60.0, slo=SLOConfig(objective_s=1.0, target=0.9),
        clock=clock)
    for index in range(6):
        tenant = "tenant_a" if index % 2 == 0 else "tenant_b"
        telemetry.record_submit(tenant)
        clock.advance(0.25)
        telemetry.record_admit(tenant, 0.25)
        clock.advance(0.5)
        telemetry.record_complete(tenant, 0.75 + index * 0.1)
    telemetry.record_reject("tenant_b")
    return render_families(registry_families(registry)
                           + telemetry_families(telemetry))


# ---------------------------------------------------------------------------
# Name and value canonicalisation


def test_sanitize_metric_name():
    assert sanitize_metric_name("io.blocks_read") == "io_blocks_read"
    assert sanitize_metric_name("a-b c") == "a_b_c"
    assert sanitize_metric_name("9lives") == "_9lives"


def test_format_value_canonical():
    assert format_value(3) == "3"
    assert format_value(3.0) == "3"
    assert format_value(2.5) == "2.5"
    assert format_value(math.inf) == "+Inf"
    assert format_value(-math.inf) == "-Inf"
    assert format_value(math.nan) == "NaN"


def test_sample_render_escapes_labels():
    sample = Sample("m", (("path", 'a"b\\c\nd'),), 1.0)
    assert sample.render() == 'm{path="a\\"b\\\\c\\nd"} 1'
    with pytest.raises(ExecutionError, match="invalid sample name"):
        Sample("9bad", (), 1.0).render()
    with pytest.raises(ExecutionError, match="invalid label name"):
        Sample("m", (("bad-label", "x"),), 1.0).render()


def test_family_validates_kind_and_name():
    with pytest.raises(ExecutionError, match="kind must be one of"):
        MetricFamily("m", "timer", "h")
    with pytest.raises(ExecutionError, match="invalid family name"):
        MetricFamily("bad name", "gauge", "h")


def test_render_families_sorts_and_rejects_duplicates():
    a = MetricFamily("b_metric", "gauge", "h", (Sample("b_metric", (), 1),))
    b = MetricFamily("a_metric", "gauge", "h", (Sample("a_metric", (), 2),))
    body = render_families([a, b])
    assert body.index("a_metric") < body.index("b_metric")
    assert body.endswith("\n")
    with pytest.raises(ExecutionError, match="duplicate metric family"):
        render_families([a, a])


# ---------------------------------------------------------------------------
# Encoders


def test_registry_families_kinds_and_histogram_buckets():
    registry = MetricsRegistry()
    registry.counter("io.blocks_read").inc(7)
    registry.gauge("cache.depth").set(2.5)
    hist = registry.histogram("wave.blocks", buckets=(1.0, 4.0))
    for value in (0.5, 2.0, 9.0):
        hist.observe(value)
    body = render_families(registry_families(registry))
    assert "# TYPE repro_io_blocks_read_total counter" in body
    assert "repro_io_blocks_read_total 7" in body
    assert "# TYPE repro_cache_depth gauge" in body
    # Histogram buckets are cumulative and end with +Inf/_sum/_count.
    assert 'repro_wave_blocks_bucket{le="1"} 1' in body
    assert 'repro_wave_blocks_bucket{le="4"} 2' in body
    assert 'repro_wave_blocks_bucket{le="+Inf"} 3' in body
    assert "repro_wave_blocks_sum 11.5" in body
    assert "repro_wave_blocks_count 3" in body


def test_telemetry_families_global_and_tenant_scoping():
    clock = FakeClock()
    telemetry = ServiceTelemetry(horizon_s=60.0, clock=clock)
    telemetry.record_submit("tenant_a")
    clock.advance(0.5)
    telemetry.record_admit("tenant_a", 0.5)
    clock.advance(1.0)
    telemetry.record_complete("tenant_a", 1.5)
    body = render_families(telemetry_families(telemetry))
    # Global sample (no label) and per-tenant sample in the same family.
    assert "\nrepro_service_submitted_total 1\n" in body
    assert 'repro_service_submitted_total{tenant="tenant_a"} 1' in body
    assert 'repro_service_response_seconds{quantile="0.5"} 1.5' in body
    assert 'repro_slo_compliance{tenant="tenant_a"} 1' in body
    families = parse_exposition(body)
    kinds = {family.name: family.kind for family in families}
    assert kinds["repro_service_submitted_total"] == "counter"
    assert kinds["repro_service_window_submitted"] == "gauge"
    assert kinds["repro_service_response_seconds"] == "summary"


# ---------------------------------------------------------------------------
# Parser strictness


def test_parse_round_trips_full_body():
    body = build_golden_exposition()
    families = parse_exposition(body)
    rendered = render_families(
        MetricFamily(name=f.name, kind=f.kind, help=f.help,
                     samples=f.samples)
        for f in families)
    assert rendered == body


def test_parse_rejects_sample_before_type_header():
    with pytest.raises(ExecutionError, match="before any # TYPE"):
        parse_exposition("orphan_metric 1\n")


def test_parse_rejects_bad_type_line():
    with pytest.raises(ExecutionError, match="bad TYPE line"):
        parse_exposition("# TYPE m timer\n")


def test_parse_rejects_non_roundtrip_line():
    text = ("# HELP m h\n# TYPE m gauge\n"
            "m 01\n")  # leading zero does not re-render identically
    with pytest.raises(ExecutionError, match="does not round-trip"):
        parse_exposition(text)


def test_parse_rejects_sample_under_wrong_family():
    text = ("# HELP m h\n# TYPE m gauge\n"
            "other 1\n")
    with pytest.raises(ExecutionError, match="under family"):
        parse_exposition(text)


def test_samples_by_name_flattens():
    families = parse_exposition(build_golden_exposition())
    samples = samples_by_name(families)
    assert len(samples["repro_service_submitted_total"]) == 3  # global + 2


# ---------------------------------------------------------------------------
# Golden pin — the exposition is byte-deterministic


def test_golden_exposition_bytes():
    body = build_golden_exposition()
    assert body == build_golden_exposition()  # re-render is identical
    golden = GOLDEN / "exposition.prom"
    assert body == golden.read_text(), (
        "exposition drifted from tests/obs/golden/exposition.prom; if the "
        "change is intentional, regenerate with:\n"
        "  PYTHONPATH=src python tests/obs/live/test_exposition.py")


if __name__ == "__main__":  # golden regeneration entry point
    (GOLDEN / "exposition.prom").write_text(build_golden_exposition())
    print(f"regenerated {GOLDEN / 'exposition.prom'}")
