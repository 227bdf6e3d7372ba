"""Per-tenant latency SLOs: objective compliance and error-budget burn.

An SLO here is the operator's promise per tenant: "``target`` of your
jobs finish within ``objective_s`` of submission".  The tracker consumes
the same response times the service books into
:class:`~repro.service.records.TenantAccount` and answers two questions:

* **Compliance** — all-time fraction of completions within the
  objective; the long-run view that matches the fairness report.
* **Error-budget burn** — the complement normalised by the allowed
  miss fraction (``1 - target``): burn 0.0 means no objective misses,
  burn 1.0 means the budget is exactly spent, above 1.0 the promise is
  broken.  A *windowed* burn rate over the telemetry horizon is kept
  alongside so the dashboard distinguishes "burned budget last night"
  from "burning budget right now".

Thread-safety mirrors :mod:`repro.obs.live.window`: each tracker owns an
:func:`~repro.analysis.lockgraph.ordered_lock` with ``# guarded-by``
annotations, so the static guarded-by checks and the runtime race
detector cover the counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable

from ...analysis.lockgraph import ordered_lock
from ...common.clock import Clock, monotonic_clock
from ...common.errors import ConfigError
from .window import DEFAULT_MAX_SAMPLES, RollingCounter


@dataclass(frozen=True)
class SLOConfig:
    """A latency objective: ``target`` of jobs within ``objective_s``."""

    objective_s: float = 2.0
    target: float = 0.95

    def __post_init__(self) -> None:
        if not self.objective_s > 0:
            raise ConfigError(
                f"slo objective_s must be positive, got {self.objective_s}")
        if not 0.0 < self.target < 1.0:
            raise ConfigError(
                f"slo target must be in (0, 1), got {self.target}")

    @property
    def budget(self) -> float:
        """Allowed miss fraction (the error budget), e.g. 0.05 for 95%."""
        return 1.0 - self.target


@dataclass(frozen=True)
class SLOStatus:
    """Immutable per-tenant SLO report."""

    tenant: str
    objective_s: float
    target: float
    completed: int
    within_objective: int
    #: All-time fraction of completions within the objective (1.0 when
    #: nothing has completed — an unused promise is an unbroken one).
    compliance: float
    #: All-time budget burn: miss fraction / allowed miss fraction.
    budget_burn: float
    #: Burn over the telemetry window only (same normalisation).
    window_burn: float
    window_completed: int

    @property
    def healthy(self) -> bool:
        return self.budget_burn <= 1.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "objective_s": self.objective_s,
            "target": self.target,
            "completed": self.completed,
            "within_objective": self.within_objective,
            "compliance": self.compliance,
            "budget_burn": self.budget_burn,
            "window_burn": self.window_burn,
            "window_completed": self.window_completed,
            "healthy": self.healthy,
        }


def _burn(missed: float, completed: float, budget: float) -> float:
    if completed <= 0:
        return 0.0
    return (missed / completed) / budget


class SLOTracker:
    """Books response times for one tenant against an :class:`SLOConfig`."""

    def __init__(self, tenant: str, config: SLOConfig, *,
                 horizon_s: float = math.inf,
                 clock: Clock | None = None,
                 max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        self.tenant = tenant
        self.config = config
        clock = clock if clock is not None else monotonic_clock()
        self._lock = ordered_lock("SLOTracker._lock")
        self._completed = 0  # guarded-by: _lock
        self._within = 0  # guarded-by: _lock
        # Windowed counterparts live in their own ring buffers; the
        # RollingCounter locks nest under _lock on the observe path.
        self._window_total = RollingCounter(
            f"{tenant}.slo.completed", horizon_s=horizon_s, clock=clock,
            max_samples=max_samples)
        self._window_missed = RollingCounter(
            f"{tenant}.slo.missed", horizon_s=horizon_s, clock=clock,
            max_samples=max_samples)

    def observe(self, response_s: float) -> None:
        """Book one completed job's submit-to-finish response time."""
        within = response_s <= self.config.objective_s
        with self._lock:
            self._completed += 1
            if within:
                self._within += 1
            self._window_total.inc()
            if not within:
                self._window_missed.inc()

    def status(self) -> SLOStatus:
        """Current compliance and burn (all-time and windowed)."""
        with self._lock:
            completed = self._completed
            within = self._within
            window_total = self._window_total.count()
            window_missed = self._window_missed.count()
        budget = self.config.budget
        return SLOStatus(
            tenant=self.tenant,
            objective_s=self.config.objective_s,
            target=self.config.target,
            completed=completed,
            within_objective=within,
            compliance=within / completed if completed else 1.0,
            budget_burn=_burn(completed - within, completed, budget),
            window_burn=_burn(window_missed, window_total, budget),
            window_completed=int(window_total),
        )


def format_slo_table(statuses: Iterable[SLOStatus]) -> str:
    """Fixed-width per-tenant SLO table for CLI reports."""
    rows = sorted(statuses, key=lambda s: s.tenant)
    header = (f"{'tenant':<12} {'objective':>9} {'target':>7} "
              f"{'done':>6} {'within':>6} {'compliance':>10} "
              f"{'burn':>7} {'state':>8}")
    lines = [header, "-" * len(header)]
    for status in rows:
        lines.append(
            f"{status.tenant:<12} {status.objective_s:>8.2f}s "
            f"{status.target:>6.1%} {status.completed:>6d} "
            f"{status.within_objective:>6d} {status.compliance:>10.1%} "
            f"{status.budget_burn:>7.2f} "
            f"{'ok' if status.healthy else 'BURNED':>8}")
    return "\n".join(lines)
