"""Utilization timelines and straggler detection from map-task spans.

The paper's S3 runs one merged sub-job per iteration and sizes segments
to the map slots actually available, checked periodically (Section
IV-D).  Locally the analogue of a "slot" is a lane — the thread that
recorded the ``map.task`` spans; these functions
derive from the recorded ``map.task`` spans

* a **slot-utilization time series** — what fraction of the observed
  lanes was busy in each time bin (always in ``[0, 1]``);
* **wave occupancy** — per ``s3.iteration`` / ``fifo.job`` span, how
  many jobs shared the wave and how long it ran;
* **stragglers** — tasks that took more than ``k`` times their wave's
  median, the per-wave signal the paper's periodical slot checking
  thresholds on.

:func:`mean_busy` and :func:`render_ramp` are the one interval-binning
loop and the one ASCII ramp; :mod:`repro.metrics.utilization` renders the
simulator's ``task.<kind>`` spans with them too.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

from .spans import SpanNode

#: Span names that represent one executed map task (a busy slot):
#: ``map.task`` in the local runtime, ``task.map`` in the simulator.
TASK_NAMES = ("map.task", "task.map")

#: Span names that represent one shared wave / scheduling unit.
WAVE_NAMES = ("s3.iteration", "fifo.job", "s3.segment")

#: Ten-level ASCII intensity ramp, idle to saturated.
_RAMP = " .:-=+*#%@"


def mean_busy(intervals: Iterable[tuple[float, float]], start: float,
              step: float, bins: int) -> list[float]:
    """Mean number of open ``(lo, hi)`` intervals in each of ``bins``
    buckets of ``step`` seconds from ``start`` (intervals lie inside the
    binned window)."""
    busy = [0.0] * bins
    for lo, hi in intervals:
        first = min(bins - 1, int((lo - start) / step))
        last = min(bins - 1, int((hi - start) / step))
        for index in range(first, last + 1):
            bin_lo = start + index * step
            overlap = min(hi, bin_lo + step) - max(lo, bin_lo)
            if overlap > 0:
                busy[index] += overlap / step
    return busy


def render_ramp(fractions: Iterable[float]) -> str:
    """One :data:`_RAMP` character per busy fraction in ``[0, 1]``."""
    top = len(_RAMP) - 1
    return "".join(_RAMP[min(top, int(fraction * top + 0.5))]
                   for fraction in fractions)


@dataclass(frozen=True)
class UtilizationSeries:
    """Slot occupancy over time for one tracer.

    ``values[i]`` is the busy fraction of all observed lanes during
    ``[start + i*step, start + (i+1)*step)``.
    """

    tracer: str
    lanes: int
    start: float
    step: float
    values: tuple[float, ...]

    @property
    def mean(self) -> float:
        """Average utilization across bins (0.0 for an empty series)."""
        return sum(self.values) / len(self.values) if self.values else 0.0

    def as_dict(self) -> dict[str, object]:
        """Plain-data view (JSON-friendly)."""
        return {
            "tracer": self.tracer,
            "lanes": self.lanes,
            "start": self.start,
            "step": self.step,
            "mean": self.mean,
            "values": list(self.values),
        }


@dataclass(frozen=True)
class WaveOccupancy:
    """One wave's footprint: when it ran and how many jobs shared it."""

    tracer: str
    name: str
    subject: str
    start: float
    dur: float
    jobs: int
    blocks: int

    def as_dict(self) -> dict[str, object]:
        """Plain-data view (JSON-friendly)."""
        return {
            "tracer": self.tracer,
            "name": self.name,
            "subject": self.subject,
            "start": self.start,
            "dur": self.dur,
            "jobs": self.jobs,
            "blocks": self.blocks,
        }


@dataclass(frozen=True)
class Straggler:
    """A task that ran ``ratio`` times its wave's median duration."""

    tracer: str
    wave: str
    subject: str
    lane: str
    dur: float
    median: float
    ratio: float

    def as_dict(self) -> dict[str, object]:
        """Plain-data view (JSON-friendly)."""
        return {
            "tracer": self.tracer,
            "wave": self.wave,
            "subject": self.subject,
            "lane": self.lane,
            "dur": self.dur,
            "median": self.median,
            "ratio": self.ratio,
        }


def _task_spans(roots: Iterable[SpanNode]) -> list[SpanNode]:
    return [span for root in roots for span in root.walk()
            if span.name in TASK_NAMES]


def utilization_series(tracer: str, roots: Sequence[SpanNode], *,
                       bins: int = 40) -> UtilizationSeries | None:
    """Binned busy-fraction of the lanes that ran map tasks.

    The window is the tracer's overall span extent (so idle lead-in and
    tail count as idle); ``None`` when the tracer recorded no tasks.
    Every value is in ``[0, 1]``: per bin, the mean number of busy lanes
    over ``lanes`` — a lane can only be busy once at a time, its spans
    within a bin never overlap.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    tasks = _task_spans(roots)
    if not tasks or not roots:
        return None
    start = min(root.start for root in roots)
    end = max(root.end for root in roots)
    if end <= start:
        return None
    lanes = len({task.lane for task in tasks})
    step = (end - start) / bins
    # Tasks are spans of this forest, so they lie inside its extent.
    busy = mean_busy(((task.start, task.end) for task in tasks),
                     start, step, bins)
    values = tuple(min(1.0, b / lanes) for b in busy)
    return UtilizationSeries(tracer=tracer, lanes=lanes, start=start,
                             step=step, values=values)


def wave_occupancy(tracer: str,
                   roots: Sequence[SpanNode]) -> list[WaveOccupancy]:
    """Per-wave job/block occupancy, ordered by start time."""
    waves = [span for root in roots for span in root.walk()
             if span.name in WAVE_NAMES]
    waves.sort(key=lambda s: (s.start, s.end, s.subject))
    out = []
    for wave in waves:
        job_ids = wave.job_ids()
        jobs = len(job_ids) if job_ids else int(wave.args.get("jobs", 1))
        out.append(WaveOccupancy(
            tracer=tracer, name=wave.name, subject=wave.subject,
            start=wave.start, dur=wave.dur, jobs=jobs,
            blocks=int(wave.args.get("blocks", len(wave.children)))))
    return out


def detect_stragglers(tracer: str, roots: Sequence[SpanNode], *,
                      k: float = 2.0,
                      min_tasks: int = 3) -> list[Straggler]:
    """Tasks slower than ``k`` times their wave's median duration.

    Waves with fewer than ``min_tasks`` tasks (or a zero median — clock
    resolution) are skipped: a median of one or two tasks flags nothing
    but noise.  This is the trace-side view of the paper's periodical
    slot checking, which compares each node's progress against its peers
    every interval and excludes the slow ones.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    out: list[Straggler] = []
    waves = [span for root in roots for span in root.walk()
             if span.name in WAVE_NAMES]
    for wave in sorted(waves, key=lambda s: (s.start, s.end, s.subject)):
        tasks = _task_spans([wave])
        if len(tasks) < min_tasks:
            continue
        median = statistics.median(task.dur for task in tasks)
        if median <= 0:
            continue
        for task in sorted(tasks, key=lambda t: (t.start, t.subject)):
            if task.dur > k * median:
                out.append(Straggler(
                    tracer=tracer, wave=wave.subject, subject=task.subject,
                    lane=task.lane, dur=task.dur, median=median,
                    ratio=task.dur / median))
    return out
