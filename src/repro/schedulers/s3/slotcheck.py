"""Periodical slot checking (Section IV-D.1).

"Based on a user-specified time interval, S3 collects the information of job
type, start time and current process on each slave node, and estimates the
completion time ... if a node becomes slow, it will be excluded from the
available node list for next round of computation; when it finishes the
current task, it becomes free and will be ready again for subsequent
processing."

The checker keeps an exponentially weighted moving average of observed map
task durations per node (the simulated stand-in for progress-report-based
completion estimates) and excludes nodes whose smoothed duration exceeds
``threshold`` x the cluster median.  Exclusion only affects *future*
assignments; running tasks always finish.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from ...cluster.cluster import Cluster
from ...common.errors import ConfigError


@dataclass
class SlotChecker:
    """EWMA-based slow-node detector."""

    threshold: float = 1.6
    ewma_alpha: float = 0.4
    #: Minimum samples per node before it can be judged.
    min_samples: int = 2
    _ewma: dict[str, float] = field(default_factory=dict)
    _samples: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.threshold <= 1.0:
            raise ConfigError("threshold must exceed 1.0")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigError("ewma_alpha must be in (0, 1]")

    def observe(self, node_id: str, duration: float) -> None:
        """Feed one completed map-task duration."""
        if duration < 0:
            raise ConfigError(f"negative duration for {node_id}")
        previous = self._ewma.get(node_id)
        if previous is None:
            self._ewma[node_id] = duration
        else:
            self._ewma[node_id] = (self.ewma_alpha * duration
                                   + (1.0 - self.ewma_alpha) * previous)
        self._samples[node_id] = self._samples.get(node_id, 0) + 1

    def slow_nodes(self) -> set[str]:
        """Node ids whose smoothed duration exceeds threshold x median."""
        judged = {n: d for n, d in self._ewma.items()
                  if self._samples.get(n, 0) >= self.min_samples}
        if len(judged) < 3:
            return set()  # not enough evidence to single anyone out
        median = statistics.median(judged.values())
        if median <= 0:
            return set()
        return {n for n, d in judged.items() if d > self.threshold * median}

    def apply(self, cluster: Cluster) -> set[str]:
        """Recompute exclusions and apply them to ``cluster``.

        Returns the excluded set.  Previously excluded nodes that recovered
        are re-included ("it becomes free and will be ready again").
        """
        slow = self.slow_nodes()
        for node in cluster:
            node.excluded = node.node_id in slow
        return slow
