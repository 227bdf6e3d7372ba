"""Configuration of the long-running scheduler service."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..common.config import ExecutionConfig
from ..common.errors import ConfigError
from ..obs.live.slo import SLOConfig

#: What to do with a submission when the pending queue is full.
OVERLOAD_POLICIES = ("reject", "block")


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one :class:`~repro.service.core.SchedulerService`.

    Attributes
    ----------
    execution:
        How iterations execute (cache, prefetch depth,
        ``blocks_per_segment`` — the scan-segment size of the live loop).
    max_pending:
        Bound on jobs accepted but not yet admitted into the scan
        (the service's pending queue, across all tenants).  ``None``
        means unbounded.  This is the overload valve: sustained arrival
        faster than the scan drains hits this bound.
    overload_policy:
        ``"reject"`` — a submission over the bound raises
        :class:`~repro.common.errors.AdmissionRejected` immediately
        (client backoff); ``"block"`` — the submitter waits up to
        ``block_timeout_s`` for capacity, then is rejected
        (backpressure).
    block_timeout_s:
        Maximum seconds a blocked submitter waits under ``"block"``.
    max_jobs_per_iteration:
        The S3 admission cap: at most this many jobs scan concurrently;
        the rest wait at the segment boundary.  ``None`` disables the cap.
    default_tenant:
        Tenant account used when ``submit`` is called without one.
    idle_poll_s:
        Core-loop wake-up interval while no work is queued (the loop
        also wakes immediately on submit/cancel/shutdown).
    window_horizon_s:
        Horizon of the live telemetry windows (rolling rates, windowed
        percentiles, SLO burn).  ``math.inf`` keeps everything — the
        right choice for deterministic replays, where a full-run window
        must agree with the offline trace analytics.
    window_max_samples:
        Hard per-window ring-buffer bound, so sustained overload cannot
        grow telemetry memory without bound.
    slo:
        Per-tenant latency objective tracked by the telemetry plane.
    """

    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    max_pending: int | None = 64
    overload_policy: str = "reject"
    block_timeout_s: float = 10.0
    max_jobs_per_iteration: int | None = None
    default_tenant: str = "default"
    idle_poll_s: float = 0.05
    window_horizon_s: float = math.inf
    window_max_samples: int = 8192
    slo: SLOConfig = field(default_factory=SLOConfig)

    def __post_init__(self) -> None:
        if self.max_pending is not None and self.max_pending < 1:
            raise ConfigError(
                f"max_pending must be >= 1 or None, got {self.max_pending}")
        if self.overload_policy not in OVERLOAD_POLICIES:
            raise ConfigError(
                f"overload_policy must be one of {OVERLOAD_POLICIES}, "
                f"got {self.overload_policy!r}")
        if self.block_timeout_s <= 0:
            raise ConfigError("block_timeout_s must be positive")
        if (self.max_jobs_per_iteration is not None
                and self.max_jobs_per_iteration < 1):
            raise ConfigError(
                "max_jobs_per_iteration must be >= 1 or None, got "
                f"{self.max_jobs_per_iteration}")
        if not self.default_tenant:
            raise ConfigError("default_tenant must be non-empty")
        if self.idle_poll_s <= 0:
            raise ConfigError("idle_poll_s must be positive")
        if not self.window_horizon_s > 0:
            raise ConfigError(
                "window_horizon_s must be positive (math.inf for an "
                f"unbounded window), got {self.window_horizon_s}")
        if self.window_max_samples < 1:
            raise ConfigError(
                f"window_max_samples must be >= 1, "
                f"got {self.window_max_samples}")
