"""Metrics registry: counters, gauges and fixed-bucket histograms.

Where the tracer answers *when did it happen*, the registry answers *how
much of it happened*: blocks read per wave, view-served reads, queue
depths.  Instruments are created on first use
(``registry.counter("io.blocks_read").inc(4)``) and share one
:func:`~repro.analysis.lockgraph.ordered_lock`, so updates from
concurrent map workers are safe and, with checking on, participate in
the project's lock-order checking.

:meth:`MetricsRegistry.absorb_read_stats` folds a
:meth:`ReadStats.delta <repro.localrt.storage.ReadStats.delta>` snapshot
into ``io.*`` counters — the bridge between the local runtime's I/O
accounting and the observability layer.  It only *reads* the stats
object (REP003 reserves writes for the storage layer).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Mapping, Sequence

from ..analysis.lockgraph import OrderedLock, ordered_lock
from ..common.errors import ExecutionError

#: Default histogram bucket upper bounds (seconds-oriented, powers of ~4).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.004, 0.016, 0.064, 0.25, 1.0, 4.0, 16.0, 64.0)


class Counter:
    """A monotonically increasing integer-or-float total."""

    __slots__ = ("name", "_lock", "value")

    def __init__(self, name: str, lock: "OrderedLock | threading.Lock") -> None:
        self.name = name
        self._lock = lock
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ExecutionError(
                f"counter {self.name!r} cannot decrease (inc({amount}))")
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "_lock", "value")

    def __init__(self, name: str, lock: "OrderedLock | threading.Lock") -> None:
        self.name = name
        self._lock = lock
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        with self._lock:
            self.value = value

    def add(self, amount: float) -> None:
        """Shift the current value by ``amount`` (may be negative)."""
        with self._lock:
            self.value += amount


class Histogram:
    """Fixed-bucket histogram: counts of observations per upper bound.

    ``buckets`` are inclusive upper bounds in increasing order; an
    implicit overflow bucket catches everything larger.  It estimates no
    quantiles: the one percentile definition is
    :func:`~repro.obs.live.window.exact_percentile`, over raw samples.
    """

    __slots__ = ("name", "_lock", "buckets", "counts", "total", "count")

    def __init__(self, name: str, lock: "OrderedLock | threading.Lock",
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ExecutionError(f"histogram {name!r} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ExecutionError(
                f"histogram {name!r} buckets must strictly increase: {bounds}")
        self.name = name
        self._lock = lock
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self.counts[index] += 1
            self.total += value
            self.count += 1

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Get-or-create home for named instruments.

    A name is permanently bound to the kind of instrument that first
    claimed it; asking for the same name as a different kind raises
    :class:`~repro.common.errors.ExecutionError` (silent type punning
    hides bugs).
    """

    def __init__(self) -> None:
        self._lock = ordered_lock("MetricsRegistry._lock")
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, kind: type,
                       factory: Any) -> Counter | Gauge | Histogram:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise ExecutionError(
                    f"metric {name!r} is a "
                    f"{type(instrument).__name__.lower()}, not a "
                    f"{kind.__name__.lower()}")
            return instrument

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        instrument = self._get_or_create(
            name, Counter, lambda: Counter(name, self._lock))
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        instrument = self._get_or_create(
            name, Gauge, lambda: Gauge(name, self._lock))
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """The histogram under ``name`` (bucket bounds fixed at creation)."""
        instrument = self._get_or_create(
            name, Histogram, lambda: Histogram(name, self._lock, buckets))
        assert isinstance(instrument, Histogram)
        return instrument

    def absorb_read_stats(self, delta: Any, *, prefix: str = "io.") -> None:
        """Fold a ``ReadStats`` delta into ``<prefix><field>`` counters.

        ``delta`` is any dataclass with numeric fields — in practice the
        result of :meth:`ReadStats.delta` for one wave.  Zero fields are
        still registered (a wave with no view-served reads should read as an
        explicit 0, not a missing metric).
        """
        for f in dataclasses.fields(delta):
            value = getattr(delta, f.name)
            if isinstance(value, (int, float)):
                self.counter(prefix + f.name).inc(value)

    def instruments(self) -> dict[str, Counter | Gauge | Histogram]:
        """Name-sorted live instrument mapping (a copy of the dict).

        :meth:`snapshot` flattens counters and gauges to bare numbers,
        which loses the kind distinction; exposition encoders need the
        instruments themselves to emit correct ``# TYPE`` lines.
        """
        with self._lock:
            return dict(sorted(self._instruments.items()))

    def snapshot(self) -> dict[str, Any]:
        """Plain-data view of every instrument, keyed by name."""
        with self._lock:
            items = sorted(self._instruments.items())
        out: dict[str, Any] = {}
        for name, instrument in items:
            if isinstance(instrument, Counter):
                out[name] = instrument.value
            elif isinstance(instrument, Gauge):
                out[name] = instrument.value
            else:
                out[name] = {
                    "buckets": list(instrument.buckets),
                    "counts": list(instrument.counts),
                    "total": instrument.total,
                    "count": instrument.count,
                }
        return out

    def format_table(self) -> str:
        """Human-readable two-column rendering of :meth:`snapshot`."""
        snap = self.snapshot()
        if not snap:
            return "(no metrics recorded)"
        width = max(len(name) for name in snap)
        lines = []
        for name, value in snap.items():
            if isinstance(value, Mapping):
                mean = (value['total'] / value['count']) if value['count'] \
                    else 0.0
                rendered = (f"count={value['count']} total={value['total']:g} "
                            f"mean={mean:g}")
            elif isinstance(value, float):
                rendered = f"{value:g}"
            else:
                rendered = str(value)
            lines.append(f"{name:<{width}}  {rendered}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._instruments)
