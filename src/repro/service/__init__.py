"""The long-running scheduler service (live S3 shared scan behind an API).

Layers
------
* :mod:`repro.service.core` — the threaded core: submit / status /
  cancel / drain against a live circular scan, with mid-scan admission
  and a bounded pending queue.
* :mod:`repro.service.lifecycle` — the job lifecycle as one transition
  table; the ledger that books every move (entries, per-tenant
  accounts, pending depth, telemetry, trace) and the books check.
* :mod:`repro.service.driver` — open-loop arrival driving (wall-clock
  and deterministic iteration replay).
* ``python -m repro.service`` — demo daemon: generates a corpus, drives
  a Poisson multi-tenant schedule, prints the fairness report; optional
  local HTTP status endpoint.
"""

from ..localrt.live import STORE_FILE_NAME
from .config import OVERLOAD_POLICIES, ServiceConfig
from .core import SchedulerService
from .driver import DriverReport, JobFactory, OpenLoopDriver, replay_iterations
from .records import (
    FairnessReport,
    JobStatus,
    JobTicket,
    TenantAccount,
    fairness_report,
    jain_index,
)

__all__ = [
    "DriverReport",
    "FairnessReport",
    "JobFactory",
    "JobStatus",
    "JobTicket",
    "OVERLOAD_POLICIES",
    "OpenLoopDriver",
    "STORE_FILE_NAME",
    "SchedulerService",
    "ServiceConfig",
    "TenantAccount",
    "fairness_report",
    "jain_index",
    "replay_iterations",
]
