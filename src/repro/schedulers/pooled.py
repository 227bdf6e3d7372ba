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

from ..cluster.node import Node
from ..common import ids
from ..common.errors import SchedulingError
from ..mapreduce.job import JobSpec
from ..mapreduce.task import TaskKind, TaskLaunch
from .unitqueue import ExecUnit, UnitQueueScheduler


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
    running_maps: int = 0
    running_reduces: int = 0

    def has_pending_maps(self, now: float) -> bool:
        return any(not u.done and not u.maps_all_assigned
                   and u.ready_time <= now for u in self.units)

    def has_pending_reduces(self) -> bool:
        return any(not u.done and u.maps_all_complete
                   and u.reduces_to_launch > 0 for u in self.units)


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
            unit_id=f"{self.name.lower()}:{pool_name}:{job.job_id}",
            jobs=(job,),
            profile=job.profile,
            dfs_file=self.ctx.namenode.get_file(job.file_name),
            ready_time=now + self.ctx.cost.job_submit_overhead_s,
        )
        pool.units.append(unit)
        self._units.append(unit)  # keeps base-class completion accounting
        ctx = self.ctx
        ctx.tracer.event("unit.enqueue", subject=unit.unit_id,
                         jobs=1, ready=round(unit.ready_time, 3))
        if unit.ready_time > now:
            ctx.sim.at(unit.ready_time, lambda _t: ctx.request_dispatch(),
                       label=f"ready:{unit.unit_id}")

    # ---------------------------------------------------------- share logic
    def _share_of(self, pool: _PoolState, demanding: int) -> float:
        if pool.guaranteed_share is not None:
            return pool.guaranteed_share
        return 1.0 / max(demanding, 1)

    def _pools_by_deficit(self, *, kind: TaskKind, now: float) -> list[_PoolState]:
        """Pools with pending work of ``kind``, most underserved first."""
        if kind is TaskKind.MAP:
            demanding = [p for p in self._pools.values()
                         if p.has_pending_maps(now)]
        else:
            demanding = [p for p in self._pools.values()
                         if p.has_pending_reduces()]
        count = len(demanding)

        def deficit_key(pool: _PoolState) -> tuple[float, str]:
            share = self._share_of(pool, count)
            running = (pool.running_maps if kind is TaskKind.MAP
                       else pool.running_reduces)
            return (running / share, pool.name)

        return sorted(demanding, key=deficit_key)

    # -------------------------------------------------------------- dispatch
    def _next_map(self, now: float) -> TaskLaunch | None:
        ctx = self.ctx
        for pool in self._pools_by_deficit(kind=TaskKind.MAP, now=now):
            for unit in pool.units:
                if unit.done or unit.maps_all_assigned:
                    continue
                if unit.ready_time > now:
                    break  # FIFO within the pool: a not-ready head blocks
                assignment = unit.assigner.next_assignment(ctx.cluster)
                if assignment is None:
                    return None  # no free map slots anywhere
                node, block_index, local = assignment
                block = unit.dfs_file.block(block_index)
                duration = ctx.cost.map_task_duration(
                    unit.profile, block.size_mb, unit.batch_size,
                    node_speed=node.speed, local=local)
                pool.running_maps += 1
                return TaskLaunch(
                    attempt_id=self._next_attempt_id(
                        ids.map_task_id(unit.unit_id, block_index)),
                    kind=TaskKind.MAP,
                    node_id=node.node_id,
                    duration=duration,
                    job_ids=unit.job_ids,
                    block_index=block_index,
                    local=local,
                    payload=(pool, unit),
                )
        return None

    def _next_reduce(self, now: float) -> TaskLaunch | None:
        from .assignment import pick_reduce_node
        ctx = self.ctx
        for pool in self._pools_by_deficit(kind=TaskKind.REDUCE, now=now):
            for unit in pool.units:
                if unit.done or not unit.maps_all_complete:
                    continue
                if unit.reduces_to_launch <= 0:
                    continue
                node = pick_reduce_node(ctx.cluster)
                if node is None:
                    return None
                unit.reduces_to_launch -= 1
                unit.reduces_started = True
                self._reduce_counter += 1
                duration = ctx.cost.reduce_task_duration(
                    unit.profile, unit.batch_size, node_speed=node.speed)
                pool.running_reduces += 1
                return TaskLaunch(
                    attempt_id=self._next_attempt_id(
                        ids.reduce_task_id(unit.unit_id, self._reduce_counter)),
                    kind=TaskKind.REDUCE,
                    node_id=node.node_id,
                    duration=duration,
                    job_ids=unit.job_ids,
                    payload=(pool, unit),
                )
        return None

    # ------------------------------------------------------------ completion
    def on_task_complete(self, launch: TaskLaunch, now: float) -> None:
        pool, unit = self._unpack(launch)
        if launch.kind is TaskKind.MAP:
            pool.running_maps -= 1
        else:
            pool.running_reduces -= 1
        launch.payload = unit  # delegate to the base-class unit accounting
        try:
            super().on_task_complete(launch, now)
        finally:
            launch.payload = (pool, unit)

    def on_task_failed(self, launch: TaskLaunch, now: float) -> None:
        pool, unit = self._unpack(launch)
        if launch.kind is TaskKind.MAP:
            pool.running_maps -= 1
            if launch.block_index is None:
                raise SchedulingError(f"{launch.attempt_id}: map without block")
            unit.assigner.add(launch.block_index)
        else:
            pool.running_reduces -= 1
            unit.reduces_to_launch += 1

    def backup_launch(self, launch: TaskLaunch, node: Node,
                      now: float) -> TaskLaunch | None:
        """Speculation is unsupported for pooled policies (the per-pool
        running-task accounting assumes one attempt per task)."""
        return None

    def _unpack(self, launch: TaskLaunch) -> tuple[_PoolState, ExecUnit]:
        payload = launch.payload
        if (not isinstance(payload, tuple) or len(payload) != 2
                or not isinstance(payload[1], ExecUnit)):
            raise SchedulingError(f"{self.name}: foreign task {launch.attempt_id}")
        return payload


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
