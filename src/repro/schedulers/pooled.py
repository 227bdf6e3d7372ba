"""Partial-utilisation baselines: Capacity and Fair scheduling.

Section II.B of the paper describes the two production alternatives to
FIFO — Yahoo!'s **capacity scheduler** (multiple queues, each guaranteed a
fraction of the cluster) and Facebook's **fair scheduler** (pools sharing
the cluster equally) — and criticises both: each job gets fewer slots (so
runs longer) and jobs still execute independently (no shared scans).
Implementing them makes that critique measurable (see
``repro.experiments.extended``).

Both reduce to the same mechanism — pick the most *underserved* pool first,
FIFO within a pool — differing only in how a pool's share is defined:

* capacity: a static fraction per queue (unused capacity flows to queues
  with demand, as in Hadoop's capacity scheduler);
* fair: shares are equal among pools that currently have demand.

Jobs choose their pool via ``JobSpec.tag`` using the ``"pool:<name>"``
convention (JobSpec is frozen and shared with the other schedulers, so the
pool rides in the free-form tag); untagged jobs land in ``"default"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..common.errors import SchedulingError
from ..mapreduce.job import JobSpec
from ..mapreduce.task import TaskKind, TaskLaunch
from .unitqueue import ExecUnit, UnitQueueScheduler, map_head, reducible


def pool_of(job: JobSpec) -> str:
    """Extract the pool name from a job's tag (``"pool:<name>"``)."""
    for part in job.tag.split():
        if part.startswith("pool:"):
            name = part[len("pool:"):]
            if name:
                return name
    return "default"


def tag_pool(name: str, extra: str = "") -> str:
    """Build a job tag assigning the job to pool ``name``."""
    if not name or " " in name:
        raise SchedulingError(f"invalid pool name {name!r}")
    return f"pool:{name} {extra}".strip()


@dataclass
class _PoolState:
    """Bookkeeping for one queue/pool."""

    name: str
    guaranteed_share: float | None
    units: list[ExecUnit] = field(default_factory=list)
    #: Running tasks of each kind.
    running: dict[TaskKind, int] = field(
        default_factory=lambda: dict.fromkeys(TaskKind, 0))

    def has_pending(self, kind: TaskKind, now: float) -> bool:
        """Whether dispatch would find a ``kind`` task to launch here."""
        if kind is TaskKind.MAP:
            return map_head(self.units, now) is not None
        return any(unit.reduces_to_launch > 0
                   for unit in reducible(self.units))


class PooledScheduler(UnitQueueScheduler):
    """Deficit-based multi-pool scheduler (capacity/fair common core).

    Parameters
    ----------
    shares:
        ``{pool: fraction}`` for capacity mode (fractions must sum to <= 1;
        pools not listed get an equal split of the remainder), or ``None``
        for fair mode (equal shares among pools with demand).
    """

    name = "Pooled"

    def __init__(self, shares: dict[str, float] | None = None) -> None:
        super().__init__()
        if shares is not None:
            if not shares:
                raise SchedulingError("shares must not be empty")
            if any(f <= 0 for f in shares.values()):
                raise SchedulingError("pool shares must be positive")
            if sum(shares.values()) > 1.0 + 1e-9:
                raise SchedulingError(
                    f"pool shares sum to {sum(shares.values()):.3f} > 1")
        self._shares = dict(shares) if shares is not None else None
        self._pools: dict[str, _PoolState] = {}
        if shares is not None:
            for pool_name in shares:
                self._pools[pool_name] = _PoolState(
                    name=pool_name, guaranteed_share=shares[pool_name])
        #: The pool of each unit, by unit id.
        self._pool_of: dict[str, _PoolState] = {}

    # --------------------------------------------------------------- intake
    def on_job_submitted(self, job: JobSpec, now: float) -> None:
        pool_name = pool_of(job)
        pool = self._pools.get(pool_name)
        if pool is None:
            if self._shares is not None:
                raise SchedulingError(
                    f"{self.name}: job {job.job_id} targets undeclared "
                    f"queue {pool_name!r} (declared: {sorted(self._pools)})")
            pool = _PoolState(name=pool_name, guaranteed_share=None)
            self._pools[pool_name] = pool
        unit = ExecUnit(
            work_id=f"{self.name.lower()}:{pool_name}:{job.job_id}",
            jobs=(job,),
            profile=job.profile,
            dfs_file=self.ctx.namenode.get_file(job.file_name),
            ready_time=now + self.ctx.cost.job_submit_overhead_s,
        )
        pool.units.append(unit)
        self._pool_of[unit.work_id] = pool
        self.enqueue_unit(unit, now)

    # ---------------------------------------------------------- share logic
    def _share_of(self, pool: _PoolState, demanding: int) -> float:
        if pool.guaranteed_share is not None:
            return pool.guaranteed_share
        return 1.0 / max(demanding, 1)

    def _pools_by_deficit(self, *, kind: TaskKind, now: float) -> list[_PoolState]:
        """Pools with pending work of ``kind``, most underserved first."""
        demanding = [p for p in self._pools.values()
                     if p.has_pending(kind, now)]
        count = len(demanding)

        def deficit_key(pool: _PoolState) -> tuple[float, str]:
            return (pool.running[kind] / self._share_of(pool, count),
                    pool.name)

        return sorted(demanding, key=deficit_key)

    # -------------------------------------------------------------- dispatch
    def next_launch(self, now: float) -> TaskLaunch | None:
        launch = super().next_launch(now)
        if launch is not None:
            self._pool_of[launch.payload.work_id].running[launch.kind] += 1
        return launch

    def _next_map(self, now: float) -> TaskLaunch | None:
        for pool in self._pools_by_deficit(kind=TaskKind.MAP, now=now):
            unit = map_head(pool.units, now)
            if unit is not None:
                return self._assign_map(unit)
        return None

    def _reducible(self, now: float) -> Iterable[ExecUnit]:
        for pool in self._pools_by_deficit(kind=TaskKind.REDUCE, now=now):
            yield from reducible(pool.units)

    def _speculatable(self, work: ExecUnit) -> bool:
        """Speculation is unsupported for pooled policies (the per-pool
        running-task accounting assumes one attempt per task)."""
        return False

    # ------------------------------------------------------------ completion
    def _release(self, launch: TaskLaunch) -> None:
        unit = self._work_of(launch)
        self._pool_of[unit.work_id].running[launch.kind] -= 1

    def on_task_complete(self, launch: TaskLaunch, now: float) -> None:
        self._release(launch)
        super().on_task_complete(launch, now)

    def on_task_failed(self, launch: TaskLaunch, now: float) -> None:
        self._release(launch)
        super().on_task_failed(launch, now)


class CapacityScheduler(PooledScheduler):
    """Yahoo!-style capacity scheduler: static queue guarantees."""

    name = "Capacity"

    def __init__(self, queue_shares: dict[str, float]) -> None:
        super().__init__(shares=queue_shares)


class FairScheduler(PooledScheduler):
    """Facebook-style fair scheduler: equal dynamic pool shares."""

    name = "Fair"

    def __init__(self) -> None:
        super().__init__(shares=None)
