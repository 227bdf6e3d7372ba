"""Hadoop-style job counters for the local runtime.

Hadoop jobs report named counters (``FileSystemCounters``, user groups) that
operators rely on for sanity checks.  The local runtime mirrors the API:
mappers/reducers that also subclass :class:`CounterUser` get a
:class:`Counters` object injected and can increment arbitrary
``(group, name)`` cells; the framework aggregates per job.

Built-in counters (maintained by the engine, group ``"framework"``):
``map_input_records``, ``map_output_records``, ``reduce_output_records``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

from ..common.errors import ExecutionError

#: Group used by the engine's built-in counters.
FRAMEWORK_GROUP = "framework"


class Counters:
    """A two-level (group, name) -> int counter map."""

    def __init__(self) -> None:
        self._groups: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))

    def __getstate__(self) -> dict[str, dict[str, int]]:
        """Pickle as plain dicts: the defaultdict factories are lambdas,
        and a pickled :class:`~repro.localrt.api.JobResult` carries its
        counters."""
        return {group: dict(names) for group, names in self._groups.items()}

    def __setstate__(self, state: dict[str, dict[str, int]]) -> None:
        self._groups = defaultdict(lambda: defaultdict(int))
        for group, names in state.items():
            self._groups[group].update(names)

    def increment(self, group: str, name: str, amount: int = 1) -> None:
        """Add ``amount`` (may be negative, but totals must stay >= 0)."""
        if not group or not name:
            raise ExecutionError("counter group and name must be non-empty")
        new_value = self._groups[group][name] + amount
        if new_value < 0:
            raise ExecutionError(
                f"counter {group}/{name} would go negative ({new_value})")
        self._groups[group][name] = new_value

    def value(self, group: str, name: str) -> int:
        """Current value (0 for never-touched counters)."""
        return self._groups.get(group, {}).get(name, 0)

    def group(self, group: str) -> dict[str, int]:
        return dict(self._groups.get(group, {}))

    def merge(self, other: "Counters") -> None:
        """Fold another counter set into this one (task -> job aggregation)."""
        for group, names in other._groups.items():
            for name, value in names.items():
                self.increment(group, name, value)

    def __iter__(self) -> Iterator[tuple[str, str, int]]:
        for group in sorted(self._groups):
            for name in sorted(self._groups[group]):
                yield group, name, self._groups[group][name]

    def __len__(self) -> int:
        return sum(len(names) for names in self._groups.values())

    def format(self) -> str:
        """Hadoop-log-style rendering."""
        lines = ["Counters:"]
        for group in sorted(self._groups):
            lines.append(f"  {group}")
            for name in sorted(self._groups[group]):
                lines.append(f"    {name}={self._groups[group][name]}")
        return "\n".join(lines)


class CounterUser:
    """Mixin for mappers/reducers that want to emit counters.

    The engine injects a per-task :class:`Counters` before invoking the
    user function and aggregates it into the job's counters afterwards.
    Outside the framework (unit tests, direct calls) ``self.counters``
    falls back to a throwaway instance.
    """

    _counters: Counters | None = None

    @property
    def counters(self) -> Counters:
        if self._counters is None:
            self._counters = Counters()
        return self._counters

    def attach_counters(self, counters: Counters) -> None:
        self._counters = counters
