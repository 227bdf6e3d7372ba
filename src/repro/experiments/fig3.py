"""Figure 3 — cost of combined job processing.

The paper varies the number of jobs combined into one batch (n = 1..10,
all submitted together so sharing is maximal) on the 160 GB wordcount
dataset (2560 map tasks, 30 reduce tasks) and reports total execution time,
average map time and average reduce time.  Headline calibration points:
combining 10 jobs costs **+25.5 % TET, +28.8 % map time, +23.5 % reduce
time** over a single job.
"""

from __future__ import annotations

from ..metrics.report import format_series
from ..schedulers.mrshare import MRShareScheduler
from ..workloads.wordcount import normal_workload
from .base import ExperimentResult, run_scheduler

#: Batch sizes the paper sweeps.
BATCH_SIZES = tuple(range(1, 11))


def run(batch_sizes: tuple[int, ...] = BATCH_SIZES) -> ExperimentResult:
    """Run the combined-cost sweep; returns TET / map / reduce series."""
    workload = normal_workload(num_jobs=max(batch_sizes))
    tet: list[float] = []
    map_time: list[float] = []
    reduce_time: list[float] = []
    for n in batch_sizes:
        jobs = workload.make_jobs(prefix=f"c{n}")[:n]
        metrics, result = run_scheduler(
            MRShareScheduler.single_batch(n), jobs, [0.0] * n,
            file_name=workload.file_name, file_size_mb=workload.file_size_mb)
        tet.append(metrics.tet)
        # Average map / reduce task durations, from the trace.
        maps = [e.args["duration"]
                for e in result.tracer.instants(name="task.start.map")]
        reduces = [e.args["duration"]
                   for e in result.tracer.instants(name="task.start.reduce")]
        map_time.append(sum(maps) / len(maps))
        reduce_time.append(sum(reduces) / len(reduces))
    series = {
        "total_execution_s": tet,
        "avg_map_task_s": map_time,
        "avg_reduce_task_s": reduce_time,
    }
    ratios = {f"{name}_ratio": [v / values[0] for v in values]
              for name, values in series.items()}
    report = format_series(
        "Figure 3 — cost of combined jobs (160GB wordcount, 2560 maps, 30 reduces)",
        "n combined", [float(n) for n in batch_sizes], series)
    report += "\n\n" + format_series(
        "Normalised to n=1 (paper at n=10: TET 1.255, map 1.288, reduce 1.235)",
        "n combined", [float(n) for n in batch_sizes], ratios,
        y_format="{:>10.3f}")
    result = ExperimentResult(
        experiment_id="fig3",
        title="Cost of combined job processing",
        extra={"batch_sizes": list(batch_sizes), **series, **ratios},
        report=report,
    )
    return result
