"""Service-side telemetry hub: global and per-tenant live windows.

:class:`ServiceTelemetry` is the single object the service's lifecycle
ledger (:meth:`repro.service.lifecycle.Ledger.transition`) feeds at
every lifecycle edge — submit, admit, complete, reject, cancel, fail —
and the single object the HTTP layer reads.  ``submitted`` counts every
arrival the service answered, accepted or turned away, so per tenant
and globally ``submitted == completed + cancelled + rejected + failed``
plus the jobs still in flight.  It owns:

* global windows — submitted/admitted/completed/rejected/cancelled/
  failed :class:`~repro.obs.live.window.RollingCounter` rates plus
  :class:`~repro.obs.live.window.SlidingQuantiles` over wait and
  response times;
* per-tenant records — the same windows per tenant plus an
  :class:`~repro.obs.live.slo.SLOTracker` booking response times
  against the configured latency objective.

The hub's own lock guards only the tenant-record dict; the instruments
carry their own locks, so the hot paths (core thread recording, scrape
threads reading) serialise per-instrument, not globally.  All clocks are
injected: the service passes its relative ``_now`` so step-mode replays
produce bit-stable windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from ...analysis.lockgraph import ordered_lock
from ...common.clock import Clock, monotonic_clock
from .slo import SLOConfig, SLOStatus, SLOTracker
from .window import DEFAULT_MAX_SAMPLES, RollingCounter, SlidingQuantiles

#: Lifecycle edges tracked as rolling rates, in presentation order.
EDGE_NAMES: tuple[str, ...] = (
    "submitted", "admitted", "completed", "rejected", "cancelled", "failed")


@dataclass(frozen=True)
class TenantTelemetry:
    """One tenant's live instruments (immutable handle, mutable members)."""

    tenant: str
    edges: dict[str, RollingCounter]
    wait_s: SlidingQuantiles
    response_s: SlidingQuantiles
    slo: SLOTracker

    def as_dict(self) -> dict[str, Any]:
        return {
            "edges": {name: counter.as_dict()
                      for name, counter in self.edges.items()},
            "wait_s": self.wait_s.snapshot().as_dict(),
            "response_s": self.response_s.snapshot().as_dict(),
            "slo": self.slo.status().as_dict(),
        }


class ServiceTelemetry:
    """Live windows + SLO trackers fed by the scheduler service."""

    def __init__(self, *, horizon_s: float = math.inf,
                 slo: SLOConfig | None = None,
                 clock: Clock | None = None,
                 max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        self.horizon_s = float(horizon_s)
        self.slo_config = slo if slo is not None else SLOConfig()
        self._clock = clock if clock is not None else monotonic_clock()
        self._max_samples = max_samples
        self._lock = ordered_lock("ServiceTelemetry._lock")
        self._tenants: dict[str, TenantTelemetry] = {}  # guarded-by: _lock
        self.edges = {name: self._edge_counter("service", name)
                      for name in EDGE_NAMES}
        self.wait_s = self._quantiles("service.wait_s")
        self.response_s = self._quantiles("service.response_s")

    def _edge_counter(self, scope: str, name: str) -> RollingCounter:
        return RollingCounter(f"{scope}.{name}", horizon_s=self.horizon_s,
                              clock=self._clock,
                              max_samples=self._max_samples)

    def _quantiles(self, name: str) -> SlidingQuantiles:
        return SlidingQuantiles(name, horizon_s=self.horizon_s,
                                clock=self._clock,
                                max_samples=self._max_samples)

    def tenant(self, tenant: str) -> TenantTelemetry:
        """The (lazily created) instrument bundle for ``tenant``."""
        with self._lock:
            record = self._tenants.get(tenant)
            if record is None:
                record = TenantTelemetry(
                    tenant=tenant,
                    edges={name: self._edge_counter(tenant, name)
                           for name in EDGE_NAMES},
                    wait_s=self._quantiles(f"{tenant}.wait_s"),
                    response_s=self._quantiles(f"{tenant}.response_s"),
                    slo=SLOTracker(tenant, self.slo_config,
                                   horizon_s=self.horizon_s,
                                   clock=self._clock,
                                   max_samples=self._max_samples),
                )
                self._tenants[tenant] = record
            return record

    def tenants(self) -> dict[str, TenantTelemetry]:
        """Stable-ordered copy of the per-tenant records."""
        with self._lock:
            return dict(sorted(self._tenants.items()))

    def _edge(self, tenant: str, name: str) -> None:
        self.edges[name].inc()
        self.tenant(tenant).edges[name].inc()

    def record_submit(self, tenant: str) -> None:
        """The service answered an arrival: accepted it into the pending
        queue, or turned it away (then :meth:`record_reject` follows)."""
        self._edge(tenant, "submitted")

    def record_admit(self, tenant: str, wait_s: float) -> None:
        """A pending job joined the scan; ``wait_s`` = submit→admit."""
        self._edge(tenant, "admitted")
        self.wait_s.observe(wait_s)
        self.tenant(tenant).wait_s.observe(wait_s)

    def record_complete(self, tenant: str, response_s: float) -> None:
        """A job finished; ``response_s`` = submit→finish."""
        self._edge(tenant, "completed")
        self.response_s.observe(response_s)
        record = self.tenant(tenant)
        record.response_s.observe(response_s)
        record.slo.observe(response_s)

    def record_reject(self, tenant: str) -> None:
        """The arrival :meth:`record_submit` just counted was turned away
        at admission control."""
        self._edge(tenant, "rejected")

    def record_cancel(self, tenant: str) -> None:
        """A job was cancelled before completing."""
        self._edge(tenant, "cancelled")

    def record_fail(self, tenant: str) -> None:
        """A job failed mid-scan."""
        self._edge(tenant, "failed")

    def slo_statuses(self) -> tuple[SLOStatus, ...]:
        """Per-tenant SLO reports, tenant-sorted."""
        return tuple(record.slo.status()
                     for record in self.tenants().values())

    def snapshot(self) -> dict[str, Any]:
        """JSON-friendly view of every window (global + per-tenant)."""
        return {
            "horizon_s": self.horizon_s,
            "edges": {name: counter.as_dict()
                      for name, counter in self.edges.items()},
            "wait_s": self.wait_s.snapshot().as_dict(),
            "response_s": self.response_s.snapshot().as_dict(),
            "tenants": {tenant: record.as_dict()
                        for tenant, record in self.tenants().items()},
        }
