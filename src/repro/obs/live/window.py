"""Sliding-window aggregators: rolling counters and exact windowed quantiles.

The :class:`~repro.obs.metrics.MetricsRegistry` answers *how much has
happened since the process started*; a live operator needs *how much is
happening right now*.  This module adds the time-local view: ring-buffer
aggregators that keep only the samples inside a trailing horizon and
answer count/rate/percentile questions about that window.

Two instruments:

* :class:`RollingCounter` — timestamped increments; ``count()`` sums the
  window, ``rate()`` divides by the horizon.  The all-time total is kept
  too, so one instrument serves both the Prometheus counter and the
  "events/s right now" gauge.
* :class:`SlidingQuantiles` — timestamped value observations with
  **exact** windowed percentiles (p50/p95/p99 by default).  Exact means
  the same linear-interpolation formula the offline trace analytics use
  (:func:`exact_percentile` is shared with
  :mod:`repro.obs.export`), so a live window whose horizon covers the
  whole run agrees with the post-hoc summary to the bit — the
  end-to-end check the live telemetry plane is validated by.

Both take an injectable zero-argument clock (sim- or wall-time; the
scheduler service passes its own relative clock) and guard their ring
buffers with an :func:`~repro.analysis.lockgraph.ordered_lock`, so
updates from the service core thread and reads from HTTP scrape threads
are safe, participate in lock-order checking when it is on, and are
covered by the ``# guarded-by`` static analysis (REP007/REP008).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Sequence

from ...analysis.lockgraph import ordered_lock
from ...common.clock import Clock, monotonic_clock
from ...common.errors import ExecutionError

#: Default percentiles reported by :class:`SlidingQuantiles`.
DEFAULT_QUANTILES: tuple[float, ...] = (50.0, 95.0, 99.0)

#: Default ring-buffer bound (samples kept even inside the horizon).
DEFAULT_MAX_SAMPLES = 8192


def exact_percentile(ordered: Sequence[float], q: float) -> float:
    """Exact ``q``-th percentile of pre-sorted values (linear interp).

    The single percentile definition shared by the offline trace
    summary (:func:`repro.obs.export.summarize`) and the live windows,
    so the two planes are comparable exactly rather than approximately.
    Returns 0.0 for an empty sequence.
    """
    if not 0.0 <= q <= 100.0:
        raise ExecutionError(f"percentile must be in [0, 100], got {q}")
    if not ordered:
        return 0.0
    position = q / 100.0 * (len(ordered) - 1)
    below = int(position)
    above = min(below + 1, len(ordered) - 1)
    fraction = position - below
    return ordered[below] + (ordered[above] - ordered[below]) * fraction


def _check_horizon(name: str, horizon_s: float) -> float:
    horizon_s = float(horizon_s)
    if not horizon_s > 0:  # rejects NaN too
        raise ExecutionError(
            f"window {name!r} horizon_s must be positive "
            f"(math.inf for an unbounded window), got {horizon_s}")
    return horizon_s


@dataclass(frozen=True)
class WindowStats:
    """Immutable snapshot of one :class:`SlidingQuantiles` window."""

    name: str
    horizon_s: float
    count: int
    total: float
    minimum: float
    maximum: float
    #: ``(q, value)`` pairs in ascending ``q`` order, e.g. ``(50.0, 0.2)``.
    quantiles: tuple[tuple[float, float], ...]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The reported value for percentile ``q`` (must be configured)."""
        for have, value in self.quantiles:
            if have == q:
                return value
        raise ExecutionError(
            f"window {self.name!r} does not report p{q:g}; configured: "
            f"{tuple(q for q, _ in self.quantiles)}")

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly view (``p50``-style keys for the quantiles)."""
        out: dict[str, Any] = {
            "horizon_s": self.horizon_s,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
        }
        for q, value in self.quantiles:
            out[f"p{q:g}"] = value
        return out


class RollingCounter:
    """Timestamped increments summed over a trailing horizon.

    ``horizon_s`` may be ``math.inf``, in which case ``count()`` equals
    ``total()`` and ``rate()`` divides by the time since construction.
    The ring buffer is additionally bounded by ``max_samples``; beyond
    it the oldest increments are folded into an evicted-remainder so the
    all-time ``total()`` stays exact while the windowed ``count()``
    degrades gracefully (it can only under-report, never invent events).
    """

    def __init__(self, name: str, *, horizon_s: float,
                 clock: Clock | None = None,
                 max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        if max_samples < 1:
            raise ExecutionError(
                f"window {name!r} max_samples must be >= 1, "
                f"got {max_samples}")
        self.name = name
        self.horizon_s = _check_horizon(name, horizon_s)
        self._clock = clock if clock is not None else monotonic_clock()
        self._born = self._clock()
        self._lock = ordered_lock("RollingCounter._lock")
        self._max_samples = max_samples
        self._samples: deque[tuple[float, float]] = deque()  # guarded-by: _lock
        self._window_sum = 0.0  # guarded-by: _lock
        self._total = 0.0  # guarded-by: _lock

    def _evict_locked(self, now: float) -> None:
        floor = now - self.horizon_s
        samples = self._samples
        while samples and samples[0][0] <= floor:
            self._window_sum -= samples.popleft()[1]
        while len(samples) > self._max_samples:
            self._window_sum -= samples.popleft()[1]

    def inc(self, amount: float = 1) -> None:
        """Record ``amount`` (must be >= 0) at the current clock reading."""
        if amount < 0:
            raise ExecutionError(
                f"window counter {self.name!r} cannot decrease "
                f"(inc({amount}))")
        now = self._clock()
        with self._lock:
            self._samples.append((now, float(amount)))
            self._window_sum += amount
            self._total += amount
            self._evict_locked(now)

    def count(self) -> float:
        """Sum of increments inside the trailing horizon."""
        now = self._clock()
        with self._lock:
            self._evict_locked(now)
            return self._window_sum

    def rate(self) -> float:
        """Windowed events/second.

        Finite horizon: windowed count divided by the horizon.  Infinite
        horizon: all-time total divided by the elapsed lifetime (0.0
        until any time has passed).
        """
        now = self._clock()
        with self._lock:
            self._evict_locked(now)
            if math.isinf(self.horizon_s):
                elapsed = now - self._born
                return self._total / elapsed if elapsed > 0 else 0.0
            return self._window_sum / self.horizon_s

    def total(self) -> float:
        """All-time sum of increments (never evicted)."""
        with self._lock:
            return self._total

    def as_dict(self) -> dict[str, float]:
        """JSON-friendly snapshot: windowed count, rate, all-time total."""
        return {"horizon_s": self.horizon_s, "count": self.count(),
                "rate": self.rate(), "total": self.total()}


class SlidingQuantiles:
    """Exact windowed percentiles over a ring buffer of observations.

    Samples older than ``horizon_s`` are evicted on every observe and
    snapshot; the buffer is also hard-bounded at ``max_samples`` (a
    ``deque(maxlen=...)``), so sustained overload cannot grow memory —
    beyond the bound the *oldest* samples fall out first, which biases
    the window toward recency, never toward forgetting fresh pain.
    """

    def __init__(self, name: str, *, horizon_s: float = math.inf,
                 quantiles: Sequence[float] = DEFAULT_QUANTILES,
                 clock: Clock | None = None,
                 max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        if not quantiles:
            raise ExecutionError(
                f"window {name!r} needs at least one quantile")
        qs = tuple(float(q) for q in quantiles)
        if any(not 0.0 <= q <= 100.0 for q in qs):
            raise ExecutionError(
                f"window {name!r} quantiles must be in [0, 100], got {qs}")
        if any(q2 <= q1 for q1, q2 in zip(qs, qs[1:])):
            raise ExecutionError(
                f"window {name!r} quantiles must strictly increase: {qs}")
        if max_samples < 1:
            raise ExecutionError(
                f"window {name!r} max_samples must be >= 1, "
                f"got {max_samples}")
        self.name = name
        self.horizon_s = _check_horizon(name, horizon_s)
        self.quantiles = qs
        self._clock = clock if clock is not None else monotonic_clock()
        self._lock = ordered_lock("SlidingQuantiles._lock")
        self._samples: deque[tuple[float, float]] = deque(  # guarded-by: _lock
            maxlen=max_samples)

    def _evict_locked(self, now: float) -> None:
        floor = now - self.horizon_s
        samples = self._samples
        while samples and samples[0][0] <= floor:
            samples.popleft()

    def observe(self, value: float) -> None:
        """Record one observation at the current clock reading."""
        now = self._clock()
        with self._lock:
            self._evict_locked(now)
            self._samples.append((now, float(value)))

    def __len__(self) -> int:
        now = self._clock()
        with self._lock:
            self._evict_locked(now)
            return len(self._samples)

    def values(self) -> tuple[float, ...]:
        """The live window's values, oldest first (evicts stale first)."""
        now = self._clock()
        with self._lock:
            self._evict_locked(now)
            return tuple(value for _, value in self._samples)

    def snapshot(self) -> WindowStats:
        """Consistent stats over the current window (exact percentiles)."""
        values = sorted(self.values())
        return WindowStats(
            name=self.name,
            horizon_s=self.horizon_s,
            count=len(values),
            total=sum(values),
            minimum=values[0] if values else 0.0,
            maximum=values[-1] if values else 0.0,
            quantiles=tuple((q, exact_percentile(values, q))
                            for q in self.quantiles),
        )
