"""Job arrival patterns (Section III / Figure 1 and Section V.D).

The paper distinguishes **dense** patterns (jobs submitted back-to-back,
maximising sharing opportunities) from **sparse** patterns (groups of dense
jobs separated by gaps; Figure 1(b)).  The experiment suite uses:

* ``dense(10)`` — all 10 jobs within a few seconds of each other;
* ``sparse_groups()`` — 10 jobs in three groups of 3/3/4 (the paper's
  sparse workload), with group gaps comparable to a job's processing time
  so S3 drains each group before the next arrives.

Generic generators (uniform spacing, Poisson process) support the extended
experiments.

**Open-loop streams.** The scheduler service consumes arrivals as
*streams*: sequences of :class:`ArrivalEvent` carrying a tenant id and a
per-stream index, merged across tenants in time order.  Build one with
:func:`poisson_streams` (independent Poisson processes per tenant, split
deterministically from one seed) and :func:`merge_streams`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..common.errors import WorkloadError
from ..common.rng import RngLike, make_rng


def dense(num_jobs: int, spacing_s: float = 2.0, start: float = 0.0) -> list[float]:
    """Back-to-back submissions ``spacing_s`` apart (paper's dense pattern)."""
    if num_jobs <= 0:
        raise WorkloadError("num_jobs must be positive")
    if spacing_s < 0:
        raise WorkloadError("spacing_s must be non-negative")
    return [start + i * spacing_s for i in range(num_jobs)]


def sparse_groups(group_sizes: Sequence[int] = (3, 3, 4),
                  group_gap_s: float = 480.0,
                  intra_group_spacing_s: float = 30.0,
                  start: float = 0.0) -> list[float]:
    """Groups of dense jobs separated by long gaps (paper's sparse pattern).

    Defaults follow Section V.D: 10 jobs in three groups of 3-4 dense jobs.
    The group gap is chosen on the order of a normal wordcount job's
    completion time so each group's shared scan finishes shortly before the
    next group arrives — "not the most sparse job pattern", per the paper's
    footnote 10, so some cross-group sharing remains possible.
    """
    if not group_sizes or any(size <= 0 for size in group_sizes):
        raise WorkloadError("group_sizes must be positive")
    if group_gap_s < 0 or intra_group_spacing_s < 0:
        raise WorkloadError("gaps must be non-negative")
    arrivals: list[float] = []
    for group_index, size in enumerate(group_sizes):
        group_start = start + group_index * group_gap_s
        for j in range(size):
            arrivals.append(group_start + j * intra_group_spacing_s)
    return arrivals


def uniform(num_jobs: int, interval_s: float, start: float = 0.0) -> list[float]:
    """Evenly spaced arrivals (one job every ``interval_s``)."""
    if num_jobs <= 0:
        raise WorkloadError("num_jobs must be positive")
    if interval_s < 0:
        raise WorkloadError("interval_s must be non-negative")
    return [start + i * interval_s for i in range(num_jobs)]


def poisson(num_jobs: int, mean_interarrival_s: float, *,
            seed: RngLike = None, start: float = 0.0) -> list[float]:
    """Poisson-process arrivals with the given mean inter-arrival time."""
    if num_jobs <= 0:
        raise WorkloadError("num_jobs must be positive")
    if mean_interarrival_s <= 0:
        raise WorkloadError("mean_interarrival_s must be positive")
    rng = make_rng(seed)
    gaps = rng.exponential(mean_interarrival_s, size=num_jobs)
    gaps[0] = 0.0  # first job arrives at `start`
    return [start + float(t) for t in gaps.cumsum()]


@dataclass(frozen=True)
class ArrivalEvent:
    """One submission in an open-loop arrival stream."""

    #: Seconds from the start of the run.
    time: float
    #: Which tenant submits.
    tenant: str
    #: Position within the tenant's own stream (0-based).
    index: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise WorkloadError(f"arrival time must be >= 0, got {self.time}")
        if not self.tenant:
            raise WorkloadError("tenant must be non-empty")
        if self.index < 0:
            raise WorkloadError(f"index must be >= 0, got {self.index}")


def merge_streams(
        streams: Mapping[str, Sequence[float]]) -> list[ArrivalEvent]:
    """Merge per-tenant arrival-time lists into one time-ordered stream.

    Ties are broken by tenant name so the merged order is deterministic
    regardless of dict iteration order.
    """
    events: list[ArrivalEvent] = []
    for tenant, times in streams.items():
        for index, t in enumerate(validate_arrivals(times)):
            events.append(ArrivalEvent(time=t, tenant=tenant, index=index))
    if not events:
        raise WorkloadError("no arrival streams supplied")
    events.sort(key=lambda e: (e.time, e.tenant, e.index))
    return events


def poisson_streams(tenants: Mapping[str, float], num_jobs: int, *,
                    seed: RngLike = None,
                    start: float = 0.0) -> list[ArrivalEvent]:
    """Independent Poisson arrival streams, one per tenant.

    ``tenants`` maps tenant name to that tenant's mean inter-arrival time
    in seconds; each tenant contributes ``num_jobs`` arrivals.  Streams
    are split deterministically from one ``seed`` per tenant name
    (sorted), so adding a tenant never perturbs the others' draws.
    """
    if not tenants:
        raise WorkloadError("tenants must be non-empty")
    streams: dict[str, Sequence[float]] = {}
    for offset, (tenant, mean_s) in enumerate(sorted(tenants.items())):
        rng = make_rng(seed)
        # Deterministic per-tenant decorrelation: burn `offset` draws.
        for _ in range(offset):
            rng.exponential(mean_s, size=num_jobs)
        gaps = rng.exponential(mean_s, size=num_jobs)
        streams[tenant] = [start + float(t) for t in gaps.cumsum()]
    return merge_streams(streams)


def validate_arrivals(arrivals: Sequence[float]) -> list[float]:
    """Check monotone non-decreasing, non-negative arrival times."""
    if not arrivals:
        raise WorkloadError("empty arrival sequence")
    out = list(arrivals)
    if any(t < 0 for t in out):
        raise WorkloadError("arrival times must be non-negative")
    if any(b < a for a, b in zip(out, out[1:])):
        raise WorkloadError("arrival times must be non-decreasing")
    return out
