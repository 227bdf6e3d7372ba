#!/usr/bin/env python
"""Fault tolerance and stragglers: the substrate behind the paper's setup.

The paper's cluster relies on MapReduce's fault tolerance and explicitly
*disables* speculative execution (Section V.A), leaning instead on S3's
own periodical slot checking (Section IV-D.1).  This example makes those
choices visible:

1. runs S3 through task failures and a mid-run tasktracker outage and
   shows the recovery overhead;
2. compares three straggler countermeasures on a heterogeneous cluster —
   nothing, Hadoop speculation, and S3 slot checking — with a per-node
   occupancy Gantt so you can watch the slow nodes drag (or be excluded).

Run:  python examples/fault_tolerance.py
"""

from repro import JobSpec, S3Scheduler, SimulationDriver, compute_metrics
from repro.common import ClusterConfig
from repro.common.units import gb
from repro.experiments import paper_cost_model
from repro.mapreduce import FaultModel, Outage, SpeculationConfig, normal_wordcount
from repro.metrics import render_gantt, slot_utilization
from repro.schedulers import S3Config


def run(scheduler, *, cluster_config=None, fault_model=None,
        speculation=None, num_jobs=4):
    driver = SimulationDriver(
        scheduler,
        cluster_config=cluster_config or ClusterConfig(
            num_nodes=12, rack_sizes=(6, 6)),
        cost_model=paper_cost_model(),
        fault_model=fault_model,
        speculation=speculation)
    driver.register_file("corpus.txt", gb(48))  # 768 blocks over 12 nodes
    profile = normal_wordcount()
    jobs = [JobSpec(job_id=f"j{i}", file_name="corpus.txt", profile=profile)
            for i in range(num_jobs)]
    driver.submit_all(jobs, [i * 60.0 for i in range(num_jobs)])
    return driver.run()


def main() -> None:
    # ---------------------------------------------------- fault recovery
    print("=== S3 under task failures + a tasktracker outage ===")
    clean = run(S3Scheduler())
    faults = FaultModel(
        task_failure_prob=0.03,
        outages=(Outage("node_005", start=120.0, duration=90.0),),
        max_attempts=8, seed=13)
    faulty = run(S3Scheduler(), fault_model=faults)
    clean_m = compute_metrics("clean", clean.timelines)
    faulty_m = compute_metrics("faulty", faulty.timelines)
    print(f"clean : TET {clean_m.tet:7.1f}s  ART {clean_m.art:7.1f}s")
    print(f"faulty: TET {faulty_m.tet:7.1f}s  ART {faulty_m.art:7.1f}s  "
          f"({faulty.task_failures} attempts failed, all jobs recovered)")

    # ----------------------------------------------- straggler handling
    print("\n=== straggler countermeasures (3 nodes at 25% speed) ===")
    speeds = [1.0] * 9 + [0.25] * 3
    straggly = ClusterConfig(num_nodes=12, rack_sizes=(6, 6),
                             node_speeds=speeds)
    spec = SpeculationConfig(enabled=True, check_interval_s=5.0,
                             slowness_factor=1.4, min_completed=8)
    variants = {
        "S3 (nothing)": (S3Scheduler(), None),
        "S3 + speculation": (S3Scheduler(), spec),
        "S3 + slot check": (S3Scheduler(S3Config(
            slot_check_enabled=True, adaptive_segments=True)), None),
    }
    results = {}
    for label, (scheduler, speculation) in variants.items():
        result = run(scheduler, cluster_config=straggly,
                     speculation=speculation)
        metrics = compute_metrics(label, result.timelines)
        util = slot_utilization(result.tracer, 12, kind="map")
        extra = (f"  backups={result.speculative_launched}"
                 if result.speculative_launched else "")
        print(f"{label:<18} TET {metrics.tet:7.1f}s  ART {metrics.art:7.1f}s  "
              f"map-slot util {util:.0%}{extra}")
        results[label] = result

    print("\nPer-node map occupancy with slot checking — the checker "
          "benches the\nslow nodes (node_009-011) instead of letting every "
          "wave wait for them:")
    print(render_gantt(results["S3 + slot check"].tracer, width=64,
                       max_nodes=12))


if __name__ == "__main__":
    main()
