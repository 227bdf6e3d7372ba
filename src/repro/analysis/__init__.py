"""Correctness tooling for the S3 reproduction.

Three halves of one toolbox:

* **static**: a project-specific lint pass (``python -m repro.analysis
  src``) with rules REP001..REP008 — see :mod:`repro.analysis.rules`
  and, for the guarded-by inference behind REP007/REP008,
  :mod:`repro.analysis.guardedby`;
* **runtime, ordering**: :class:`~repro.analysis.lockgraph.OrderedLock`,
  a lock-order recorder that turns potential deadlocks into test
  failures (enable with ``REPRO_LOCKCHECK=1``);
* **runtime, races**: :mod:`repro.analysis.racecheck`, a TSan-lite
  lockset checker over registered instances (enable with
  ``REPRO_RACECHECK=1``).

This package imports nothing from the runtime packages (the runtime
imports :mod:`~repro.analysis.lockgraph` and
:mod:`~repro.analysis.racecheck`, so the dependency only points one
way).
"""

from .core import (
    AnalysisError,
    Rule,
    Violation,
    analyze_paths,
    analyze_source,
)
from .lockgraph import (
    LockOrderError,
    OrderedLock,
    held_locks,
    held_tracking_enabled,
    lock_order_graph,
    lockcheck_enabled,
    reset_lock_graph,
    set_held_tracking,
    set_lockcheck,
)
from .racecheck import (
    RaceError,
    race_checked,
    racecheck_enabled,
    register_instance,
    set_racecheck,
)
from .rules import READSTATS_FIELDS, RULES, RULES_BY_CODE

__all__ = [
    "AnalysisError", "Rule", "Violation", "analyze_paths", "analyze_source",
    "LockOrderError", "OrderedLock", "lock_order_graph",
    "lockcheck_enabled", "reset_lock_graph", "set_lockcheck",
    "held_locks", "held_tracking_enabled", "set_held_tracking",
    "RaceError", "race_checked", "racecheck_enabled",
    "register_instance", "set_racecheck",
    "READSTATS_FIELDS", "RULES", "RULES_BY_CODE",
]
