"""Micro-benchmarks of the simulator substrate (performance tracking).

Not paper artifacts — these guard the engine's own throughput so the
figure-level benchmarks above stay cheap as the code evolves.
"""

from repro.common.config import ClusterConfig, DfsConfig
from repro.dfs.namenode import NameNode
from repro.dfs.placement import RoundRobinPlacement
from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.driver import SimulationDriver
from repro.mapreduce.job import JobSpec
from repro.mapreduce.profile import normal_wordcount
from repro.schedulers.s3 import S3Scheduler
from repro.schedulers.s3.scanloop import ScanLoop
from repro.simengine.simulator import Simulator


def _event_churn(num_events: int) -> int:
    sim = Simulator()
    for i in range(num_events):
        sim.at(float(i % 97), lambda now: None)
    sim.run()
    return sim.events_processed


def test_simulator_event_throughput(benchmark):
    processed = benchmark(_event_churn, 20_000)
    assert processed == 20_000


def _full_s3_run() -> float:
    driver = SimulationDriver(
        S3Scheduler(),
        cluster_config=ClusterConfig(),
        dfs_config=DfsConfig(block_size_mb=64.0),
        cost_model=CostModel())
    driver.register_file("f", 160 * 1024)
    profile = normal_wordcount()
    jobs = [JobSpec(job_id=f"j{i}", file_name="f", profile=profile)
            for i in range(10)]
    driver.submit_all(jobs, [float(20 * i) for i in range(10)])
    return driver.run().end_time


def test_full_scale_s3_simulation(benchmark):
    """One paper-scale S3 run (2560 blocks, 10 jobs) end to end."""
    end_time = benchmark(_full_s3_run)
    assert end_time > 0


def _scanloop_cycle(num_blocks: int, seg: int) -> int:
    namenode = NameNode(DfsConfig(block_size_mb=64.0),
                        RoundRobinPlacement([f"n{i}" for i in range(40)]))
    loop = ScanLoop(namenode.create_file("f", 64.0 * num_blocks))
    profile = normal_wordcount()
    for i in range(8):
        loop.add_job(JobSpec(job_id=f"j{i}", file_name="f", profile=profile),
                     0.0)
    iterations = 0
    while loop.has_work():
        if loop.build_iteration(seg) is None:
            break
        iterations += 1
    return iterations


def test_scanloop_build_throughput(benchmark):
    iterations = benchmark(_scanloop_cycle, 2560, 40)
    assert iterations == 64
