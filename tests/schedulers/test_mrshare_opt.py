"""MRShare optimal-grouping DP tests."""

import pytest

from repro.common.errors import SchedulingError
from repro.experiments.paperconfig import paper_cost_model, sparse_pattern
from repro.mapreduce.profile import normal_wordcount
from repro.schedulers.mrshare_opt import optimal_grouping, optimal_mrshare

GEOMETRY = dict(num_blocks=2560, block_mb=64.0, map_slots=40)


@pytest.fixture
def model():
    return dict(profile=normal_wordcount(), cost=paper_cost_model(),
                **GEOMETRY)


def predicted_tet(plan_groups, arrivals, *, profile, cost, num_blocks,
                  block_mb, map_slots):
    """Analytic finish time of an arbitrary consecutive grouping."""
    finish = 0.0
    for group in plan_groups:
        ready = max(arrivals[j] for j in group)
        finish = max(finish, ready) + cost.combined_job_makespan_s(
            profile, len(group), num_blocks, block_mb, map_slots)
    return finish


def test_dense_arrivals_single_batch_optimal(model):
    """All jobs at once: one combined batch dominates (Figure 4(b))."""
    plan = optimal_grouping([0.0] * 6, objective="tet", **model)
    assert plan.num_batches == 1
    assert plan.groups == (tuple(range(6)),)


def test_very_sparse_arrivals_no_batching(model):
    """Arrivals further apart than a job: batching only adds waiting."""
    arrivals = [0.0, 2000.0, 4000.0]
    plan = optimal_grouping(arrivals, objective="tet", **model)
    assert plan.num_batches == 3
    assert all(len(g) == 1 for g in plan.groups)


def test_groups_partition_in_order(model):
    plan = optimal_grouping(sparse_pattern(), objective="tet", **model)
    flat = [j for g in plan.groups for j in g]
    assert flat == list(range(10))


def test_optimal_beats_paper_groupings_on_tet(model):
    """The DP's TET is <= every hand-picked MRS1/2/3 grouping's."""
    arrivals = sparse_pattern()
    plan = optimal_grouping(arrivals, objective="tet", **model)
    for groups in ([list(range(10))],
                   [list(range(6)), list(range(6, 10))],
                   [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]):
        hand_picked = predicted_tet(groups, arrivals, **model)
        assert plan.predicted_finish <= hand_picked + 1e-9


def test_art_objective_prefers_smaller_early_batches(model):
    """Minimising response time splits more finely than minimising TET."""
    arrivals = sparse_pattern()
    tet_plan = optimal_grouping(arrivals, objective="tet", **model)
    art_plan = optimal_grouping(arrivals, objective="art", **model)
    assert art_plan.num_batches >= tet_plan.num_batches
    # The ART-optimal plan's summed response is no worse than TET-optimal's.
    def total_response(plan):
        finish, total = 0.0, 0.0
        cost, profile = model["cost"], model["profile"]
        for group in plan.groups:
            ready = max(arrivals[j] for j in group)
            makespan = cost.combined_job_makespan_s(
                profile, len(group), GEOMETRY["num_blocks"],
                GEOMETRY["block_mb"], GEOMETRY["map_slots"])
            finish = max(finish, ready) + makespan
            total += sum(finish - arrivals[j] for j in group)
        return total
    assert total_response(art_plan) <= total_response(tet_plan) + 1e-6


def test_predicted_finish_matches_simulation(model,
                                             small_cluster_config):
    """The DP's analytic TET matches the simulator within task granularity."""
    from repro.experiments.base import run_scheduler
    from repro.mapreduce.job import JobSpec

    arrivals = sparse_pattern()
    plan = optimal_grouping(arrivals, objective="tet", **model)
    scheduler = optimal_mrshare(arrivals, objective="tet", **model)
    profile = model["profile"]
    jobs = [JobSpec(job_id=f"j{i}", file_name="f", profile=profile)
            for i in range(10)]
    metrics, _ = run_scheduler(scheduler, jobs, arrivals,
                               file_name="f", file_size_mb=2560 * 64.0)
    assert metrics.tet == pytest.approx(plan.predicted_finish, rel=0.02)


def test_validation(model):
    with pytest.raises(SchedulingError):
        optimal_grouping([], objective="tet", **model)
    with pytest.raises(SchedulingError):
        optimal_grouping([5.0, 1.0], objective="tet", **model)
    with pytest.raises(SchedulingError):
        optimal_grouping([0.0], objective="bogus", **model)
