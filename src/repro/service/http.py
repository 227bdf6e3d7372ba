"""Routed HTTP layer for the scheduler service.

The service's operator surface, factored out of the CLI so it is unit-
testable without spawning ``python -m repro.service``:

=============  ==============================================================
Route          Body
=============  ==============================================================
``/status``    Full :meth:`~repro.service.core.SchedulerService.snapshot`
               (JSON; carries ``schema_version``).
``/metrics``   Prometheus text exposition: service + executor registries,
               live windows, per-tenant SLO burn, queue depths.
``/healthz``   Liveness — 200 while the core has not failed; 503 with the
               core error once it has.  Draining or overloaded is *alive*.
``/readyz``    Readiness — 200 only while the service would accept a
               submission right now; 503 when overloaded (pending queue at
               the bound), draining, stopping, or dead.  JSON body carries
               the individual verdict components.
``/tenants``   Per-tenant live report: accounts, queue depth, window
               percentiles, SLO status, Jain fairness (JSON).
=============  ==============================================================

Unknown paths get a 404 with a JSON body listing the routes — a client
hitting a typo learns the API instead of a bare error page.

Everything is read-only and every handler snapshots under the service's
own synchronisation, so scrapes never block a map wave (the wave runs
outside the service lock by design).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from ..obs.live.exposition import (
    MetricFamily,
    Sample,
    registry_families,
    render_families,
    telemetry_families,
)
from .core import SchedulerService

#: Routes served, in documentation order.
ROUTES: tuple[str, ...] = (
    "/status", "/metrics", "/healthz", "/readyz", "/tenants")

#: Content type of the Prometheus text exposition format.
EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def metrics_families(service: SchedulerService) -> list[MetricFamily]:
    """Every metric family ``/metrics`` exposes, unsorted.

    Service registry (``service.*`` counters/gauges), executor registry
    (``io.*`` physical/logical read counters, wave histograms), the live
    telemetry windows, plus tenant-labelled queue depths, the readiness
    verdict as 0/1 gauges and the store handle's derived-view table
    (``repro_derived_*``).
    """
    families = registry_families(service.metrics)
    families.extend(registry_families(service.executor_metrics))
    families.extend(telemetry_families(service.telemetry))

    depth_name = "repro_service_queue_depth"
    depths = service.queue_depths()
    families.append(MetricFamily(
        name=depth_name, kind="gauge",
        help="Pending (accepted, unadmitted) jobs per tenant.",
        samples=tuple(Sample(depth_name, (("tenant", tenant),), depth)
                      for tenant, depth in sorted(depths.items()))))

    ready = service.readiness()
    for key in ("ready", "overloaded"):
        name = f"repro_service_{key}"
        families.append(MetricFamily(
            name=name, kind="gauge",
            help=f"1 when the readiness probe reports {key}.",
            samples=(Sample(name, (), 1.0 if ready[key] else 0.0),)))
    for key, value in service.store.derived.stats().items():
        # Two levels (what the table holds now); the rest only grow.
        kind = ("gauge" if key in ("resident_blocks", "charged_bytes")
                else "counter")
        name = f"repro_derived_{key}" + ("_total" if kind == "counter" else "")
        families.append(MetricFamily(
            name=name, kind=kind,
            help=f"Derived-view table of the store handle: {key}.",
            samples=(Sample(name, (), value),)))
    iterations = "repro_service_iterations_total"
    families.append(MetricFamily(
        name=iterations, kind="counter",
        help="Scan iterations completed.",
        samples=(Sample(iterations, (), service.iterations),)))
    return families


def render_metrics(service: SchedulerService) -> str:
    """The full ``/metrics`` body (deterministic for a fixed state)."""
    return render_families(metrics_families(service))


def _json_body(payload: Any) -> tuple[str, bytes]:
    body = json.dumps(payload, indent=2, sort_keys=True,
                      default=str).encode() + b"\n"
    return "application/json", body


def _route_status(service: SchedulerService) -> tuple[int, str, bytes]:
    kind, body = _json_body(service.snapshot())
    return 200, kind, body


def _route_metrics(service: SchedulerService) -> tuple[int, str, bytes]:
    return 200, EXPOSITION_CONTENT_TYPE, render_metrics(service).encode()


def _route_healthz(service: SchedulerService) -> tuple[int, str, bytes]:
    ready = service.readiness()
    alive = bool(ready["core_alive"])
    kind, body = _json_body({"healthy": alive})
    return (200 if alive else 503), kind, body


def _route_readyz(service: SchedulerService) -> tuple[int, str, bytes]:
    ready = service.readiness()
    kind, body = _json_body(ready)
    return (200 if ready["ready"] else 503), kind, body


def _route_tenants(service: SchedulerService) -> tuple[int, str, bytes]:
    kind, body = _json_body(service.tenants_report())
    return 200, kind, body


_HANDLERS: dict[str, Callable[[SchedulerService], tuple[int, str, bytes]]] = {
    "/status": _route_status,
    "/metrics": _route_metrics,
    "/healthz": _route_healthz,
    "/readyz": _route_readyz,
    "/tenants": _route_tenants,
}


def handle_path(service: SchedulerService,
                path: str) -> tuple[int, str, bytes]:
    """Resolve one GET: ``(status code, content type, body bytes)``.

    The routing core, shared by the live handler and the unit tests.
    ``/`` and trailing slashes normalise (``/status/`` works); anything
    unrouted gets the JSON 404 listing every route.
    """
    path = path.split("?", 1)[0]
    normalized = "/" + path.strip("/")
    if normalized == "/":
        normalized = "/status"
    handler = _HANDLERS.get(normalized)
    if handler is None:
        kind, body = _json_body({
            "error": f"no route {path!r}",
            "routes": list(ROUTES),
        })
        return 404, kind, body
    return handler(service)


def make_handler(service: SchedulerService) -> type[BaseHTTPRequestHandler]:
    """A request-handler class bound to ``service`` (GET-only)."""

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            status, kind, body = handle_path(service, self.path)
            self.send_response(status)
            self.send_header("Content-Type", kind)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, fmt: str, *args: object) -> None:
            pass  # silence per-request stderr chatter

    return Handler


def start_http_server(service: SchedulerService, port: int, *,
                      host: str = "127.0.0.1") -> ThreadingHTTPServer:
    """Serve the routes on ``host:port`` from a daemon thread.

    Pass port 0 to bind an ephemeral port (tests); the bound address is
    ``server.server_address``.  Call ``server.shutdown()`` to stop.
    """
    server = ThreadingHTTPServer((host, port), make_handler(service))
    threading.Thread(target=server.serve_forever,
                     name="s3-service-http", daemon=True).start()
    return server
