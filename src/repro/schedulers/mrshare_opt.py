"""Cost-based optimal MRShare grouping.

The original MRShare system (Nykiel et al., PVLDB'10) does not batch jobs
arbitrarily: it *optimises* the partition of jobs into groups with a
dynamic program over its cost model.  The paper reproduced here compares
against three hand-picked groupings (MRS1/2/3); this module supplies the
missing optimiser so the baseline can be run at full strength.

Problem shape (adapted to timed arrivals): jobs arrive in submission order
and MRShare may only batch *consecutive* jobs (a batch cannot start before
its last member arrives, so skipping ahead never helps).  Batches execute
sequentially on the cluster.  Given the calibrated combined-cost model, we
choose the partition minimising either

* ``"tet"`` — the finish time of the last batch, or
* ``"art"`` — the sum of job response times (completion - arrival).

Both are solved exactly with a prefix DP that keeps, per prefix, the Pareto
frontier of ``(finish_time, objective_cost)`` states — finishing earlier can
never hurt later groups, so dominated states are safely pruned.  With the
paper's 10 jobs the DP is instantaneous; it remains polynomial for hundreds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from ..common.errors import SchedulingError
from ..mapreduce.costmodel import CostModel
from ..mapreduce.profile import JobProfile
from .mrshare import MRShareScheduler

Objective = Literal["tet", "art"]


@dataclass(frozen=True)
class GroupingPlan:
    """The optimiser's output."""

    groups: tuple[tuple[int, ...], ...]
    objective: Objective
    predicted_finish: float
    predicted_cost: float

    @property
    def num_batches(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class _State:
    """One Pareto-optimal way to schedule a prefix of the jobs."""

    finish: float
    cost: float
    groups: tuple[tuple[int, ...], ...]


def _prune(states: list[_State]) -> list[_State]:
    """Keep only Pareto-optimal (finish, cost) states."""
    states.sort(key=lambda s: (s.finish, s.cost))
    kept: list[_State] = []
    best_cost = float("inf")
    for state in states:
        if state.cost < best_cost - 1e-12:
            kept.append(state)
            best_cost = state.cost
    return kept


def optimal_grouping(arrivals: Sequence[float], *,
                     profile: JobProfile,
                     cost: CostModel,
                     num_blocks: int,
                     block_mb: float,
                     map_slots: int,
                     objective: Objective = "tet") -> GroupingPlan:
    """Compute the optimal consecutive grouping for ``arrivals``.

    ``arrivals`` must be sorted (submission order).  Batch runtimes come
    from :meth:`CostModel.combined_job_makespan_s` on the given geometry.
    """
    if not arrivals:
        raise SchedulingError("no arrivals to group")
    if list(arrivals) != sorted(arrivals):
        raise SchedulingError("arrivals must be sorted")
    if objective not in ("tet", "art"):
        raise SchedulingError(f"unknown objective {objective!r}")
    n = len(arrivals)
    # makespans[b] = runtime of a combined batch of b jobs (index 0 unused).
    makespans = [float("nan")] + [
        cost.combined_job_makespan_s(profile, b, num_blocks, block_mb,
                                     map_slots)
        for b in range(1, n + 1)]

    # dp[i]: Pareto states covering jobs 0..i-1.
    dp: list[list[_State]] = [[] for _ in range(n + 1)]
    dp[0] = [_State(finish=0.0, cost=0.0, groups=())]
    for end in range(1, n + 1):
        candidates: list[_State] = []
        for start in range(end):
            batch = tuple(range(start, end))
            ready = arrivals[end - 1]
            for prev in dp[start]:
                begin = max(prev.finish, ready)
                finish = begin + makespans[len(batch)]
                if objective == "tet":
                    cost_value = finish
                else:
                    cost_value = prev.cost + sum(
                        finish - arrivals[j] for j in batch)
                candidates.append(_State(
                    finish=finish,
                    cost=cost_value if objective == "art" else finish,
                    groups=prev.groups + (batch,)))
        dp[end] = _prune(candidates)
    best = min(dp[n], key=lambda s: s.cost)
    return GroupingPlan(groups=best.groups, objective=objective,
                        predicted_finish=best.finish,
                        predicted_cost=best.cost)


def optimal_mrshare(arrivals: Sequence[float], *,
                    profile: JobProfile,
                    cost: CostModel,
                    num_blocks: int,
                    block_mb: float,
                    map_slots: int,
                    objective: Objective = "tet") -> MRShareScheduler:
    """Build an :class:`MRShareScheduler` using the optimal grouping."""
    plan = optimal_grouping(arrivals, profile=profile, cost=cost,
                            num_blocks=num_blocks, block_mb=block_mb,
                            map_slots=map_slots, objective=objective)
    label = f"MRS-opt[{objective}]"
    return MRShareScheduler([list(g) for g in plan.groups], label=label)
