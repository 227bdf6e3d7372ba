"""Replication > 1: rack-aware placement and its scheduling effects."""

import pytest

from repro.common.config import ClusterConfig, DfsConfig
from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.driver import SimulationDriver
from repro.mapreduce.faults import FaultModel, Outage
from repro.mapreduce.job import JobSpec
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.s3 import S3Scheduler


def make_driver(scheduler, replication, small_cluster_config,
                fault_model=None):
    return SimulationDriver(
        scheduler,
        cluster_config=small_cluster_config,
        dfs_config=DfsConfig(block_size_mb=64.0, replication=replication),
        cost_model=CostModel(job_submit_overhead_s=0.0, subjob_overhead_s=0.0),
        fault_model=fault_model)


def test_replicated_blocks_span_racks(small_cluster_config):
    driver = make_driver(FifoScheduler(), 3, small_cluster_config)
    dfs_file = driver.register_file("f", 64.0 * 8)
    for block in dfs_file.blocks:
        assert len(block.locations) == 3
        racks = {driver.cluster.topology.rack_of(n) for n in block.locations}
        assert len(racks) == 2  # HDFS: one replica off-rack


def test_replication_improves_locality_under_contention(small_cluster_config,
                                                        fast_profile):
    """With 2 jobs racing, extra replicas give the assigner more local
    choices — locality with replication 3 >= replication 1."""
    rates = {}
    for replication in (1, 3):
        driver = make_driver(S3Scheduler(), replication, small_cluster_config)
        driver.register_file("f", 64.0 * 24)
        jobs = [JobSpec(job_id=f"j{i}", file_name="f", profile=fast_profile)
                for i in range(2)]
        driver.submit_all(jobs, [0.0, 1.0])
        result = driver.run()
        rates[replication] = result.locality.local / result.locality.total
    assert rates[3] >= rates[1]


def test_outage_with_replication_keeps_locality(small_cluster_config,
                                                fast_profile):
    """A dead tasktracker's blocks stay node-local elsewhere when
    replicated."""
    faults = FaultModel(outages=(Outage("node_000", 0.0, 500.0),))
    driver = make_driver(FifoScheduler(), 2, small_cluster_config,
                         fault_model=faults)
    driver.register_file("f", 64.0 * 16)
    driver.submit_all([JobSpec(job_id="j", file_name="f",
                               profile=fast_profile)], [0.0])
    result = driver.run()
    assert all(t.is_complete for t in result.timelines.values())
    # With a second replica nearly every map stays node-local; both of the
    # dead node's blocks replicate to the same partner (deterministic
    # placement), whose single slot forces at most one remote read.
    assert result.locality.local >= 0.9 * result.locality.total


def test_replication_exceeding_cluster_rejected():
    from repro.common.errors import DfsError
    config = ClusterConfig(num_nodes=2, rack_sizes=(2,))
    driver = SimulationDriver(FifoScheduler(), cluster_config=config,
                              dfs_config=DfsConfig(replication=2))
    with pytest.raises(DfsError):
        SimulationDriver(
            FifoScheduler(), cluster_config=config,
            dfs_config=DfsConfig(replication=5)).register_file("f", 64.0)
    driver.register_file("ok", 64.0)  # 2 replicas on 2 nodes is fine
