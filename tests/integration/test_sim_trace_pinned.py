"""The simulator's instant stream, pinned.

PR 20 made the sim-clock ``Tracer`` the simulator's only record (it sat
behind an adapter log before).  The digests below were computed at the
parent commit (``584e634``) from the adapter's underlying tracer with
:func:`instant_digest`; the same runs must still record the same
``(ts, name, subject, args)`` sequence of instants.  The dispatch-path digests (pools, retries,
backups) were computed at ``cf9e154``, before every policy shared one
dispatch base.
"""

import hashlib
import json

import pytest

from repro.common.config import ClusterConfig, DfsConfig
from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.driver import SimulationDriver, SimulationResult
from repro.mapreduce.faults import FaultModel, SpeculationConfig
from repro.mapreduce.job import JobSpec
from repro.mapreduce.profile import normal_wordcount
from repro.metrics.utilization import slot_utilization
from repro.obs import Tracer, analyze_events, export_chrome, load_events
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.mrshare import MRShareScheduler
from repro.schedulers.pooled import CapacityScheduler, FairScheduler, tag_pool
from repro.schedulers.s3 import S3Scheduler


def instant_digest(tracer: Tracer) -> str:
    digest = hashlib.sha256()
    for event in tracer.instants():
        digest.update(json.dumps(
            [event.ts, event.name, event.subject, event.args],
            sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _jobs(count: int) -> list[JobSpec]:
    return [JobSpec(job_id=f"j{i}", file_name="f", profile=normal_wordcount())
            for i in range(count)]


def small_run(scheduler) -> SimulationResult:
    """4 jobs, 10 s apart, over a 48-block file on 8 single-slot nodes."""
    driver = SimulationDriver(
        scheduler,
        cluster_config=ClusterConfig(num_nodes=8, rack_sizes=(4, 4)),
        dfs_config=DfsConfig(block_size_mb=64.0))
    driver.register_file("f", 48 * 64.0)
    driver.submit_all(_jobs(4), [0.0, 10.0, 20.0, 30.0])
    return driver.run()


def faulty_run() -> SimulationResult:
    """ISSUE 20's run: S3 on the paper cluster, jittered, 5 % failures."""
    driver = SimulationDriver(
        S3Scheduler(), cluster_config=ClusterConfig(),
        dfs_config=DfsConfig(block_size_mb=64),
        cost_model=CostModel(duration_jitter=0.3), jitter_seed=3,
        fault_model=FaultModel(task_failure_prob=0.05, seed=7))
    driver.register_file("f", 400 * 64.0)
    driver.submit_all(_jobs(3), [0.0, 20.0, 40.0])
    return driver.run()


@pytest.fixture(scope="module")
def faulty() -> SimulationResult:
    return faulty_run()


@pytest.mark.parametrize("make_scheduler, expected", [
    (FifoScheduler,
     "ca7948c6e25520bcac3dd6cface1e7b0e3cf233466dc2c0489450acef97ee7a8"),
    (lambda: MRShareScheduler.single_batch(4),
     "93acf20b54dd22dee6ca0430a1fb1382fc57c45a3cb1be02d273973f5ca0f4d8"),
    (S3Scheduler,
     "e89cbc7498665ee4d32b40eeb0fd86e89fbc6644c11f263bc9d5865f36c6928b"),
], ids=["fifo", "mrshare", "s3"])
def test_instants_identical_to_parent(make_scheduler, expected):
    assert instant_digest(small_run(make_scheduler()).tracer) == expected


def dispatch_run(scheduler, *, pools: str = "", faults: bool = False,
                 speculate: bool = False) -> SimulationResult:
    """``small_run``'s workload through the retry, backup and pool paths.

    ``pools`` names the pool of each job in turn (``"ab"`` alternates two
    pools); faults and speculation each switch on a jittered cost model.
    """
    jobs = [JobSpec(job_id=f"j{i}", file_name="f", profile=normal_wordcount(),
                    tag=tag_pool(pools[i % len(pools)]) if pools else "")
            for i in range(4)]
    driver = SimulationDriver(
        scheduler,
        cluster_config=ClusterConfig(
            num_nodes=8, rack_sizes=(4, 4),
            node_speeds=((0.25, 1, 1, 1, 0.25, 1, 1, 1) if speculate
                         else None)),
        dfs_config=DfsConfig(block_size_mb=64.0),
        cost_model=(CostModel(duration_jitter=0.2) if faults or speculate
                    else None),
        fault_model=(FaultModel(task_failure_prob=0.05, seed=7) if faults
                     else None),
        speculation=(SpeculationConfig(enabled=True, check_interval_s=5,
                                       slowness_factor=1.4, min_completed=5)
                     if speculate else None),
        jitter_seed=5)
    driver.register_file("f", 48 * 64.0)
    driver.submit_all(jobs, [0.0, 10.0, 20.0, 30.0])
    return driver.run()


@pytest.mark.parametrize("make_scheduler, options, failures, backups, expected", [
    (lambda: CapacityScheduler({"a": 0.5, "b": 0.5}), dict(pools="ab"), 0, 0,
     "6ef1643de5c50861dcfec087e2b90af339910350611f7732e6bf3f36527d18fc"),
    (FairScheduler, dict(pools="abc"), 0, 0,
     "21c7bf20f6a8a8e770ce348a17e7f372b11840579798698d61c910e601477d6f"),
    (FairScheduler, dict(pools="ab", faults=True), 17, 0,
     "abbafb3583b80daef8d3f24dde38a1827c78baadb9fc3be9f9097bf7b5df7ede"),
    (FifoScheduler, dict(faults=True), 17, 0,
     "2ee5f75314230bd13e0ebf4b30f340413e9792ce6c9ccd5bb4a53ca220963ea5"),
    (lambda: MRShareScheduler.single_batch(4), dict(faults=True), 4, 0,
     "b83f5e86a2e94efa262884051a7c3116e20710f0d437f8d7820413283cab7fd0"),
    (FifoScheduler, dict(speculate=True), 0, 1,
     "403efa0318afb6f1f95df6cdf97a21e75737ebb80a32170a2407d9586c8f0a0a"),
    (S3Scheduler, dict(speculate=True), 0, 16,
     "1e0ed1934b356401c6c8759370b0b1e66c53fe8aab19a90d746e60c13ef1fcce"),
], ids=["capacity", "fair", "fair-faults", "fifo-faults", "mrs1-faults",
        "fifo-speculation", "s3-speculation"])
def test_dispatch_paths_identical_to_parent(make_scheduler, options, failures,
                                            backups, expected):
    """Pools, retries and backups: the paths the runs above never take."""
    result = dispatch_run(make_scheduler(), **options)
    assert (result.task_failures, result.speculative_launched) == (
        failures, backups)
    assert instant_digest(result.tracer) == expected


def test_faulty_instants_identical_to_parent(faulty):
    assert faulty.task_failures == 53
    assert instant_digest(faulty.tracer) == (
        "dbbc140844c49b539088cd2afc4ff6d10dfcd04aa25cbc6b9c2b9960b1b7b5b5")


def test_every_attempt_has_one_span(faulty):
    """Finished, failed and killed attempts all close with a task span,
    so spans are the occupancy intervals (the parent recorded a span only
    for the 560 attempts that finished: 2472.1 busy seconds)."""
    tracer = faulty.tracer
    starts = {e.subject: e.ts for e in tracer.instants(name="task.start.map")}
    spans = tracer.spans(name="task.map")
    assert len(spans) == len(starts) == 598
    ends = {e.subject: e.ts for e in tracer.instants()
            if e.name in ("task.finish.map", "task.fail.map",
                          "task.killed.map")}
    assert sum(s.dur for s in spans) == pytest.approx(
        sum(ends[a] - starts[a] for a in starts), abs=1e-9)
    assert sum(s.dur for s in spans) == pytest.approx(2554.0, abs=0.05)
    outcomes = [s.args["outcome"] for s in spans]
    assert (outcomes.count("finish"), outcomes.count("fail")) == (560, 38)


def test_utilization_from_spans_equals_parent(faulty, tmp_path):
    # Parent value: slot_utilization over paired start/end instants.
    assert slot_utilization(faulty.tracer, 40, kind="map") == pytest.approx(
        0.43146258118776665, abs=1e-12)
    path = tmp_path / "faulty.trace.json"
    export_chrome(path, [faulty.tracer])
    report = analyze_events(load_events(path))
    assert report["breakdown"]["sim"]["task.map"]["count"] == 598
