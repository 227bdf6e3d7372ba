"""Scan-sharing attribution: who benefited from the shared scan, and by
how much.

The paper's core claim is that sharing one physical scan across n jobs
removes redundant I/O.  The runtime records everything needed to verify
that per job, per run:

* each ``map.task`` span carries the ``job_ids`` that shared the block
  read;
* each ``io.wave`` instant carries the wave's
  :class:`~repro.localrt.storage.ReadStats` delta — logical blocks
  (scan work the schedule required) and *physical* blocks (actual trips
  to disk, the visits the derived-view table did not answer).

Attribution splits every wave's physical reads across its tasks' jobs:
a block shared by k jobs charges each 1/k of a read (computed in exact
:class:`~fractions.Fraction` arithmetic, so the per-job attributed
physical reads sum to the run's physical total *exactly*).  The
standalone baseline is what the job would have read running alone — one
physical read per block it participated in.  Their quotient is the
**sharing ratio**: 1.0 means the job paid full price (FIFO on a store
handle that has not seen the blocks); n jobs sharing a full scan
approach n.  Besides the shared scan, one tier cuts the bill below one
read per visit: the handle's derived-view table, which answers a warm
visit of wave-summed riders with no bytes loaded — so a warm lap's
ratio can exceed its sharing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .spans import SpanNode, instants_in

#: Wave span names whose subjects match ``io.wave`` subjects.
_WAVE_SPAN_NAMES = ("s3.iteration", "fifo.job")


@dataclass(frozen=True)
class JobAttribution:
    """One job's share of the run's scan work."""

    job_id: str
    #: Blocks this job's mappers consumed (its scan demand).
    standalone_blocks: int
    #: Its exact share of the run's physical reads under sharing.
    attributed_physical: float
    #: ``standalone / attributed`` — the factor by which sharing (scan
    #: merging and the derived-view table) cut this job's I/O bill; 0.0
    #: when unattributable (no physical read was charged).
    sharing_ratio: float

    def as_dict(self) -> dict[str, object]:
        """Plain-data view (JSON-friendly)."""
        return {
            "job_id": self.job_id,
            "standalone_blocks": self.standalone_blocks,
            "attributed_physical": self.attributed_physical,
            "sharing_ratio": self.sharing_ratio,
        }


@dataclass(frozen=True)
class SharingReport:
    """Per-tracer attribution: jobs, run totals and the headline ratio."""

    tracer: str
    jobs: tuple[JobAttribution, ...]
    logical_blocks: int
    physical_blocks: int
    #: Sum of every job's standalone demand (the no-sharing baseline).
    standalone_blocks: int

    @property
    def sharing_ratio(self) -> float:
        """Run-level ratio: standalone demand over physical reads."""
        if self.physical_blocks <= 0:
            return 0.0
        return self.standalone_blocks / self.physical_blocks

    def as_dict(self) -> dict[str, object]:
        """Plain-data view (JSON-friendly)."""
        return {
            "tracer": self.tracer,
            "logical_blocks": self.logical_blocks,
            "physical_blocks": self.physical_blocks,
            "standalone_blocks": self.standalone_blocks,
            "sharing_ratio": self.sharing_ratio,
            "jobs": [job.as_dict() for job in self.jobs],
        }


def _wave_label(span: SpanNode) -> str:
    return span.subject


def _task_job_ids(span: SpanNode, wave: SpanNode) -> tuple[str, ...]:
    """A task's participants; FIFO waves fall back to the job subject."""
    ids = span.job_ids()
    if ids:
        return ids
    if wave.name == "fifo.job" and wave.subject:
        return (wave.subject,)
    return ()


def _wave_tasks(wave: SpanNode) -> list[tuple[str, ...]]:
    """Participant tuples for every block-read task of ``wave`` (its
    ``map.task`` spans)."""
    tasks = [_task_job_ids(span, wave) for span in wave.walk()
             if span.name == "map.task"]
    return [t for t in tasks if t]


def attribute_sharing(events: Sequence[Mapping[str, Any]],
                      forest: Mapping[str, Sequence[SpanNode]],
                      ) -> list[SharingReport]:
    """Join ``io.wave`` deltas with per-task participants, per tracer.

    Returns one report per tracer that recorded at least one ``io.wave``
    instant, sorted by tracer name.  Tracers whose waves carry no
    attributable tasks (no ``job_ids`` anywhere — e.g. a pre-PR-5 trace)
    yield a report with an empty job table rather than guessed numbers.
    """
    reports = []
    for tracer in sorted(forest):
        roots = forest[tracer]
        io_waves = instants_in(events, tracer=tracer, name="io.wave")
        if not io_waves:
            continue
        wave_spans = {
            _wave_label(span): span
            for root in roots for span in root.walk()
            if span.name in _WAVE_SPAN_NAMES}

        standalone: dict[str, int] = {}
        attributed: dict[str, Fraction] = {}
        logical_total = 0
        physical_total = 0
        for instant in io_waves:
            args = instant.get("args", {})
            logical = int(args.get("blocks", 0))
            physical = int(args.get("physical_blocks", 0))
            logical_total += logical
            physical_total += physical
            wave = wave_spans.get(str(instant.get("subject", "")))
            if wave is None:
                continue
            tasks = _wave_tasks(wave)
            if not tasks:
                continue
            weights: dict[str, Fraction] = {}
            for job_ids in tasks:
                share = Fraction(1, len(job_ids))
                for job_id in job_ids:
                    weights[job_id] = weights.get(job_id, Fraction(0)) + share
                    standalone[job_id] = standalone.get(job_id, 0) + 1
            total_weight = sum(weights.values())
            for job_id, weight in weights.items():
                attributed[job_id] = (attributed.get(job_id, Fraction(0))
                                      + Fraction(physical) * weight
                                      / total_weight)

        jobs = []
        for job_id in sorted(standalone):
            share = float(attributed.get(job_id, Fraction(0)))
            demand = standalone[job_id]
            ratio = demand / share if share > 0 else 0.0
            jobs.append(JobAttribution(
                job_id=job_id, standalone_blocks=demand,
                attributed_physical=share, sharing_ratio=ratio))
        reports.append(SharingReport(
            tracer=tracer, jobs=tuple(jobs),
            logical_blocks=logical_total, physical_blocks=physical_total,
            standalone_blocks=sum(standalone.values())))
    return reports
