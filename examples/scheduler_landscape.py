#!/usr/bin/env python
"""The full scheduler landscape, with per-job and cluster analytics.

Runs six policies over the same sparse 10-job wordcount workload —
Hadoop FIFO, the Fair and Capacity schedulers the paper discusses in
Section II.B, a *cost-optimally grouped* MRShare (the missing strong
baseline, via the Pareto DP in ``repro.schedulers.mrshare_opt``) and S3 —
then digs into *why* S3 wins with the analytics layer:

* per-job phase breakdown (waiting vs processing vs shared-scan fraction);
* cluster map-slot utilisation strips per policy.

Run:  python examples/scheduler_landscape.py
"""

from repro.experiments import paper_cost_model, sparse_pattern
from repro.experiments.base import run_scheduler
from repro.mapreduce import JobSpec
from repro.metrics import (
    format_phase_table,
    job_phase_stats,
    mean_sharing_fraction,
    render_utilization_strip,
    slot_utilization,
)
from repro.schedulers import (
    CapacityScheduler,
    FairScheduler,
    FifoScheduler,
    S3Scheduler,
    tag_pool,
)
from repro.schedulers.mrshare_opt import optimal_mrshare
from repro.workloads import normal_workload


def pooled_jobs():
    jobs = normal_workload(10).make_jobs()
    return [JobSpec(job_id=j.job_id, file_name=j.file_name, profile=j.profile,
                    tag=tag_pool(("etl", "adhoc")[i % 2], j.tag))
            for i, j in enumerate(jobs)]


def main() -> None:
    arrivals = sparse_pattern()
    workload = normal_workload(10)
    factories = {
        "FIFO": FifoScheduler,
        "Fair": FairScheduler,
        "Capacity": lambda: CapacityScheduler({"etl": 0.5, "adhoc": 0.5}),
        "MRS-opt": lambda: optimal_mrshare(
            arrivals, profile=workload.profile, cost=paper_cost_model(),
            num_blocks=2560, block_mb=64.0, map_slots=40, objective="tet"),
        "S3": S3Scheduler,
    }
    results = {}
    print(f"{'policy':<9} {'TET':>8} {'ART':>8} {'map util':>9} "
          f"{'shared scan':>12}")
    print("-" * 52)
    for label, factory in factories.items():
        metrics, result = run_scheduler(
            factory(), pooled_jobs(), arrivals,
            file_name=workload.file_name, file_size_mb=workload.file_size_mb)
        util = slot_utilization(result.tracer, 40, kind="map")
        sharing = mean_sharing_fraction(result)
        print(f"{label:<9} {metrics.tet:>8.0f} {metrics.art:>8.0f} "
              f"{util:>8.0%} {sharing:>11.0%}")
        results[label] = result

    print("\nmap-slot occupancy over time (one char ~ 1/60 of each run):")
    for label, result in results.items():
        strip = render_utilization_strip(result.tracer, 40, width=60)
        print(f"{label:<9} |{strip}|")

    print("\nper-job breakdown under S3 (waiting vs processing, "
          "shared-scan fraction):")
    print(format_phase_table(job_phase_stats(results["S3"])))


if __name__ == "__main__":
    main()
