"""Fault injection and speculative execution configuration.

The paper's testbed relies on MapReduce's "fine-grained fault tolerance"
(Section I) and explicitly *disables* speculative map/reduce tasks
(Section V.A).  To reproduce that choice meaningfully the substrate has to
implement both mechanisms:

* **Task failures** — each attempt fails independently with probability
  ``task_failure_prob``; a failed attempt occupies its slot for a random
  fraction of its duration, then the scheduler re-enqueues the work.  A
  task that fails ``max_attempts`` times kills the simulation (as a failed
  job would surface in Hadoop).
* **Tasktracker outages** — scheduled windows during which a node accepts
  no new tasks and its running attempts fail immediately.  The node's
  DataNode keeps serving its blocks (remote reads), matching a tasktracker
  process death rather than a machine loss — with the paper's replication
  factor of 1, a full machine loss would simply fail the job.
* **Speculative execution** — when enabled, tasks whose elapsed time
  exceeds ``slowness_factor`` x the median completed-task duration get a
  backup attempt on a free slot; the first finisher wins and the loser is
  killed (Hadoop's classic speculation).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import ConfigError
from ..common.rng import RngLike, make_rng


@dataclass(frozen=True)
class Outage:
    """One tasktracker outage window."""

    node_id: str
    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.duration <= 0:
            raise ConfigError(
                f"outage on {self.node_id}: start must be >= 0 and "
                f"duration > 0")

    @property
    def end(self) -> float:
        return self.start + self.duration


class FaultModel:
    """Randomised task failures plus scheduled node outages."""

    def __init__(self, *, task_failure_prob: float = 0.0,
                 outages: tuple[Outage, ...] = (),
                 max_attempts: int = 4,
                 seed: RngLike = None) -> None:
        if not 0.0 <= task_failure_prob < 1.0:
            raise ConfigError("task_failure_prob must be in [0, 1)")
        if max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        self.task_failure_prob = task_failure_prob
        self.outages = tuple(outages)
        self.max_attempts = max_attempts
        self._rng = make_rng(seed)

    def sample_failure(self) -> float | None:
        """Return the failing attempt's relative progress in (0, 1), or
        ``None`` if this attempt succeeds."""
        if self.task_failure_prob <= 0.0:
            return None
        if self._rng.random() < self.task_failure_prob:
            # Fail somewhere strictly inside the attempt's runtime.
            return float(self._rng.uniform(0.05, 0.95))
        return None


@dataclass(frozen=True)
class SpeculationConfig:
    """Hadoop-style speculative execution settings.

    Attributes
    ----------
    enabled:
        The paper's experiments run with this off (Section V.A).
    check_interval_s:
        How often the driver scans running attempts for stragglers.
    slowness_factor:
        An attempt is speculatable once its elapsed time exceeds
        ``slowness_factor`` x the median completed duration of its kind.
    min_completed:
        Minimum completed tasks before medians are trusted.
    """

    enabled: bool = False
    check_interval_s: float = 5.0
    slowness_factor: float = 1.5
    min_completed: int = 5

    def __post_init__(self) -> None:
        if self.check_interval_s <= 0:
            raise ConfigError("check_interval_s must be positive")
        if self.slowness_factor <= 1.0:
            raise ConfigError("slowness_factor must exceed 1.0")
        if self.min_completed < 1:
            raise ConfigError("min_completed must be >= 1")
