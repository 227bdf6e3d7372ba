"""Routed HTTP layer: handle_path routing, live server, readiness codes."""

import json
import urllib.error
import urllib.request

import pytest

from repro.common.clock import FakeClock
from repro.common.config import ExecutionConfig
from repro.common.errors import AdmissionRejected
from repro.localrt.jobs import wordcount_job
from repro.localrt.storage import BlockStore
from repro.obs.live.exposition import parse_exposition
from repro.service.config import ServiceConfig
from repro.service.core import SNAPSHOT_SCHEMA_VERSION, SchedulerService
from repro.service.http import (
    EXPOSITION_CONTENT_TYPE,
    ROUTES,
    handle_path,
    render_metrics,
    start_http_server,
)


def make_service(store, **kwargs):
    kwargs.setdefault("execution", ExecutionConfig(blocks_per_segment=4))
    kwargs.setdefault("idle_poll_s", 0.005)
    clock = kwargs.pop("clock", None)
    return SchedulerService(store, ServiceConfig(**kwargs), clock=clock)


def run_to_completion(service):
    while service.step():
        pass


# ------------------------------------------------------------------ routing


def test_every_route_resolves(store):
    service = make_service(store)
    for route in ROUTES:
        status, kind, body = handle_path(service, route)
        assert status == 200, route
        assert body
        if route != "/metrics":
            json.loads(body)  # JSON endpoints parse
    service.shutdown()


def test_root_trailing_slash_and_query_normalise(store):
    service = make_service(store)
    assert handle_path(service, "/")[0] == 200  # / -> /status
    assert handle_path(service, "/status/")[0] == 200
    assert handle_path(service, "/metrics?foo=bar")[0] == 200
    service.shutdown()


def test_404_body_lists_routes(store):
    service = make_service(store)
    status, kind, body = handle_path(service, "/nope")
    assert status == 404
    assert kind == "application/json"
    payload = json.loads(body)
    assert payload["routes"] == list(ROUTES)
    assert "/nope" in payload["error"]
    service.shutdown()


def test_status_carries_schema_version(store):
    service = make_service(store)
    _, _, body = handle_path(service, "/status")
    assert json.loads(body)["schema_version"] == SNAPSHOT_SCHEMA_VERSION
    service.shutdown()


# ------------------------------------------------------------------ metrics


def test_metrics_parse_with_strict_parser(store):
    service = make_service(store)
    service.submit(wordcount_job("wc", r"alpha"), tenant="tenant_a")
    run_to_completion(service)
    status, kind, body = handle_path(service, "/metrics")
    assert status == 200 and kind == EXPOSITION_CONTENT_TYPE
    families = parse_exposition(body.decode("utf-8"))
    names = {family.name for family in families}
    assert "repro_service_ready" in names
    assert "repro_service_queue_depth" in names
    assert "repro_service_iterations_total" in names
    assert "repro_service_response_seconds" in names
    service.shutdown()


def test_metrics_byte_deterministic_across_identical_replays(store):
    def replay():
        # A handle of its own: what a handle derived from its blocks
        # stays with it, so a second service on the same one has less
        # to do — and says so under ``repro_derived_*``.
        service = make_service(BlockStore(store.directory),
                               clock=FakeClock())
        service.submit(wordcount_job("wc_a", r"alpha"), tenant="tenant_a")
        service.submit(wordcount_job("wc_b", r"beta"), tenant="tenant_b")
        run_to_completion(service)
        body = render_metrics(service)
        service.shutdown()
        return body

    assert replay() == replay()


# ------------------------------------------------------- health & readiness


def test_healthz_alive_then_dead_after_shutdown(store):
    service = make_service(store)
    status, _, body = handle_path(service, "/healthz")
    assert status == 200 and json.loads(body)["healthy"] is True
    service.shutdown()
    status, _, body = handle_path(service, "/healthz")
    assert status == 503 and json.loads(body)["healthy"] is False


def test_readyz_503_under_overload_and_recovers(store):
    service = make_service(store, max_pending=1, overload_policy="reject")
    service.submit(wordcount_job("wc", r"alpha"), tenant="tenant_a")
    with pytest.raises(AdmissionRejected):
        service.submit(wordcount_job("wc2", r"beta"), tenant="tenant_a")
    status, _, body = handle_path(service, "/readyz")
    assert status == 503
    verdict = json.loads(body)
    assert verdict["overloaded"] is True and verdict["ready"] is False
    run_to_completion(service)  # drain the queue
    status, _, body = handle_path(service, "/readyz")
    assert status == 200 and json.loads(body)["ready"] is True
    service.shutdown()


def test_tenants_route_reports_windows_and_fairness(store):
    service = make_service(store)
    service.submit(wordcount_job("wc", r"alpha"), tenant="tenant_a")
    run_to_completion(service)
    _, _, body = handle_path(service, "/tenants")
    payload = json.loads(body)
    assert set(payload) == {"tenants", "fairness", "slo"}
    tenant = payload["tenants"]["tenant_a"]
    assert tenant["telemetry"]["edges"]["completed"]["total"] == 1
    assert tenant["queue_depth"] == 0
    assert payload["slo"][0]["tenant"] == "tenant_a"
    service.shutdown()


# ---------------------------------------------------------------- live HTTP


def test_live_server_serves_all_routes(store):
    service = make_service(store)
    service.submit(wordcount_job("wc", r"alpha"), tenant="tenant_a")
    run_to_completion(service)
    server = start_http_server(service, 0)
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        with urllib.request.urlopen(f"{base}/status", timeout=5) as response:
            assert response.status == 200
            assert json.loads(response.read())["schema_version"] == \
                SNAPSHOT_SCHEMA_VERSION
        with urllib.request.urlopen(f"{base}/metrics", timeout=5) as response:
            assert response.headers["Content-Type"] == \
                EXPOSITION_CONTENT_TYPE
            assert parse_exposition(response.read().decode("utf-8"))
        with urllib.request.urlopen(f"{base}/healthz", timeout=5) as response:
            assert response.status == 200
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/bogus", timeout=5)
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["routes"] == list(ROUTES)
    finally:
        server.shutdown()
        service.shutdown()
