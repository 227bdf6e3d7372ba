"""Property-based fault-injection tests.

For any failure seed and moderate failure probability, every scheduler must
complete every job with exactly one effective completion per task, and the
S3 coverage invariant must survive retries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import ClusterConfig, DfsConfig
from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.driver import SimulationDriver
from repro.mapreduce.faults import FaultModel, SpeculationConfig
from repro.mapreduce.job import JobSpec
from repro.mapreduce.profile import normal_wordcount
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.mrshare import MRShareScheduler
from repro.schedulers.s3 import S3Scheduler

PROFILE = normal_wordcount().with_(num_reduce_tasks=4, reduce_total_s=2.0)


def run_with_seed(scheduler_kind: str, seed: int, prob: float,
                  num_jobs: int, blocks: int, *, speculate: bool = False):
    """``speculate`` also slows one node to a fifth, so backups launch."""
    if scheduler_kind == "fifo":
        scheduler = FifoScheduler()
    elif scheduler_kind == "mrshare":
        scheduler = MRShareScheduler.single_batch(num_jobs)
    else:
        scheduler = S3Scheduler()
    driver = SimulationDriver(
        scheduler,
        cluster_config=ClusterConfig(
            num_nodes=6, rack_sizes=(3, 3),
            node_speeds=[1.0] * 5 + [0.2] if speculate else None),
        dfs_config=DfsConfig(block_size_mb=64.0),
        cost_model=CostModel(job_submit_overhead_s=0.5, subjob_overhead_s=0.1),
        fault_model=FaultModel(task_failure_prob=prob, max_attempts=40,
                               seed=seed),
        speculation=SpeculationConfig(enabled=speculate, check_interval_s=2.0,
                                      slowness_factor=1.3, min_completed=3))
    driver.register_file("f", 64.0 * blocks)
    jobs = [JobSpec(job_id=f"j{i}", file_name="f", profile=PROFILE)
            for i in range(num_jobs)]
    driver.submit_all(jobs, [3.0 * i for i in range(num_jobs)])
    return driver.run()


@given(seed=st.integers(0, 10_000),
       scheduler_kind=st.sampled_from(["fifo", "mrshare", "s3"]),
       prob=st.floats(0.0, 0.25),
       num_jobs=st.integers(1, 3),
       blocks=st.integers(4, 20))
@settings(max_examples=30, deadline=None)
def test_all_jobs_complete_under_any_failure_seed(seed, scheduler_kind, prob,
                                                  num_jobs, blocks):
    result = run_with_seed(scheduler_kind, seed, prob, num_jobs, blocks)
    assert all(t.is_complete for t in result.timelines.values())
    # Exactly one effective completion per map task identity.
    finishes = result.tracer.instants(name="task.finish.map")
    tasks = {r.subject.rsplit(".attempt_", 1)[0] for r in finishes}
    assert len(tasks) == len(finishes)


@given(seed=st.integers(0, 10_000), prob=st.floats(0.05, 0.3))
@settings(max_examples=20, deadline=None)
def test_s3_sharing_accounting_survives_retries(seed, prob):
    """Per-job map-task counts stay exact (one per block) under failures."""
    result = run_with_seed("s3", seed, prob, num_jobs=2, blocks=12)
    for job_id in ("j0", "j1"):
        assert result.job_map_tasks[job_id] == 12


@given(seed=st.integers(0, 10_000),
       scheduler_kind=st.sampled_from(["fifo", "mrshare", "s3"]),
       prob=st.floats(0.0, 0.25),
       speculate=st.booleans())
@settings(max_examples=30, deadline=None)
def test_every_attempt_closes_with_one_span(seed, scheduler_kind, prob,
                                            speculate):
    """Finished, failed and killed attempts each get one ``task.<kind>``
    span covering start to end, so spans are the occupancy intervals."""
    result = run_with_seed(scheduler_kind, seed, prob, num_jobs=2, blocks=12,
                           speculate=speculate)
    tracer = result.tracer
    for kind in ("map", "reduce"):
        starts = {e.subject: e.ts
                  for e in tracer.instants(name=f"task.start.{kind}")}
        spans = tracer.spans(name=f"task.{kind}")
        assert len(spans) == len(starts)
        assert {s.subject: s.ts for s in spans} == starts
        for outcome in ("finish", "fail", "killed"):
            ends = tracer.instants(name=f"task.{outcome}.{kind}")
            closed = [s for s in spans if s.args["outcome"] == outcome]
            assert [e.subject for e in ends] == [s.subject for s in closed]
            assert [e.ts for e in ends] == pytest.approx(
                [s.end for s in closed], abs=1e-9)
