"""Job cost profiles.

A :class:`JobProfile` bundles the per-workload constants of the simulator's
cost model.  The shipped profiles are calibrated against the numbers the
paper publishes (Section V.B-V.C):

``normal_wordcount``
    160 GB input, 2560 map tasks at 64 MB, 30 reduce tasks, ~240 s per job
    on 40 map slots; combining 10 jobs costs +25.5 % total time, +28.8 % map
    time and +23.5 % reduce time (Figure 3).
``heavy_wordcount``
    10x the map output and 200x the reduce output; average job time 1.5x the
    normal workload.  Scan sharing buys relatively less because per-job CPU
    and shuffle dominate (Section V.E).
``selection``
    TPC-H ``lineitem`` SQL selection with 10 % selectivity over 400 GB
    (Section V.G).  Scan-bound with a small reduce phase.

How the calibration works
-------------------------
With one map slot per node and ``m`` cluster map slots, a job over ``N``
blocks runs ``ceil(N/m)`` map waves.  A single-job 64 MB map task is modelled
as ``startup + size/scan_rate + size * cpu_per_mb``; the shipped constants
(1.2 + 2.0 + 1.0 s) give 64 waves x 4.2 s ~ 269 s of map time plus a 16 s
reduce phase — the paper's "~240 s average processing time" plus the task
dispatch latency a real Hadoop 0.20 JobTracker adds via its one-task-per-
heartbeat assignment.

When ``n`` jobs share a scan, only the per-job CPU term grows:
``cpu * (1 + beta*(n-1))``.  ``beta = 0.1344`` makes a 10-job combined map
task cost 1.288x a single-job task — exactly Figure 3's +28.8 %
(``(1.2 + 2.0 + 1.0*(1 + 9*beta)) / 4.2 = 1.288``).  The reduce phase
scales as ``reduce_total_s * (1 + gamma*(n-1))`` with ``gamma = 0.0261``
(Figure 3's +23.5 % at n = 10); the resulting 10-job combined TET comes out
at ~+27 %, against the paper's +25.5 %.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..common.errors import ConfigError


@dataclass(frozen=True)
class JobProfile:
    """Cost-model constants for one family of jobs.

    Attributes
    ----------
    name:
        Profile label used in traces and reports.
    scan_rate_mb_s:
        Disk scan throughput of one map slot in MB/s.  The scan term is paid
        once per block per *batch* — this is exactly what shared scanning
        saves.
    map_cpu_s_per_mb:
        Per-job map-function CPU cost per input MB (record parsing +
        user logic).  Grows with batch size via ``map_share_beta``.
    task_startup_s:
        Fixed per-map-task overhead (JVM reuse, task setup, heartbeat
        dispatch latency).
    map_share_beta:
        Marginal CPU factor per extra batched job: a batch of ``n`` jobs pays
        ``map_cpu * (1 + beta*(n-1))``.
    reduce_total_s:
        Duration of the reduce phase (shuffle + sort + reduce) of a single
        job over the whole file, assuming one reduce wave.
    reduce_share_gamma:
        Marginal reduce factor per extra batched job.
    num_reduce_tasks:
        Reduce tasks per job (the paper uses 30).
    map_output_mb_per_input_mb / map_output_records_per_mb /
    reduce_output_records / reduce_output_mb:
        Bookkeeping used by the Table I reproduction and the heavy-workload
        scaling; they do not enter task durations directly (their effect is
        already folded into ``map_cpu_s_per_mb`` and ``reduce_total_s``).
    """

    name: str
    scan_rate_mb_s: float
    map_cpu_s_per_mb: float
    task_startup_s: float
    map_share_beta: float
    reduce_total_s: float
    reduce_share_gamma: float
    num_reduce_tasks: int = 30
    map_output_mb_per_input_mb: float = 0.015
    map_output_records_per_mb: float = 1526.0
    reduce_output_records: float = 70_000.0
    reduce_output_mb: float = 1.5

    def __post_init__(self) -> None:
        if self.scan_rate_mb_s <= 0:
            raise ConfigError(f"{self.name}: scan_rate_mb_s must be positive")
        if self.map_cpu_s_per_mb < 0 or self.task_startup_s < 0:
            raise ConfigError(f"{self.name}: map cost terms must be non-negative")
        if self.map_share_beta < 0 or self.reduce_share_gamma < 0:
            raise ConfigError(f"{self.name}: share factors must be non-negative")
        if self.reduce_total_s < 0:
            raise ConfigError(f"{self.name}: reduce_total_s must be non-negative")
        if self.num_reduce_tasks <= 0:
            raise ConfigError(f"{self.name}: num_reduce_tasks must be positive")

    def with_(self, **changes) -> "JobProfile":
        """Return a modified copy (convenience wrapper over ``replace``)."""
        return replace(self, **changes)


def normal_wordcount() -> JobProfile:
    """The paper's normal wordcount workload (Table I / Figure 3)."""
    return JobProfile(
        name="wordcount-normal",
        scan_rate_mb_s=32.0,
        map_cpu_s_per_mb=1.0 / 64.0,
        task_startup_s=1.2,
        map_share_beta=0.1344,
        reduce_total_s=16.0,
        reduce_share_gamma=0.0261,
        num_reduce_tasks=30,
        map_output_mb_per_input_mb=2.4 * 1024 / (160.0 * 1024),
        map_output_records_per_mb=250e6 / (160.0 * 1024),
        reduce_output_records=70_000.0,
        reduce_output_mb=1.5,
    )


def heavy_wordcount() -> JobProfile:
    """Heavy wordcount: 10x map output, 200x reduce output, 1.5x job time.

    The extra output shifts cost from the (shareable) scan to (per-job)
    CPU and shuffle: the CPU term more than doubles, the reduce phase grows
    ~4x, and combining jobs helps less (larger ``beta``/``gamma``).
    """
    base = normal_wordcount()
    return base.with_(
        name="wordcount-heavy",
        map_cpu_s_per_mb=2.35 / 64.0,
        reduce_total_s=56.0,
        map_share_beta=0.30,
        reduce_share_gamma=0.35,
        map_output_mb_per_input_mb=base.map_output_mb_per_input_mb * 10,
        map_output_records_per_mb=base.map_output_records_per_mb * 10,
        reduce_output_records=base.reduce_output_records * 200,
        reduce_output_mb=base.reduce_output_mb * 200,
    )


def selection() -> JobProfile:
    """TPC-H lineitem selection, 10 % selectivity (Section V.G).

    Scan-dominated: the map function only evaluates one predicate per row.
    Unlike wordcount — where the map-side combiner collapses each extra
    job's output — a selection emits ~10 % of the *input* per job with no
    dedup, so a combined task's write volume grows nearly linearly with the
    batch size: the sharing-overhead factors are several times larger than
    wordcount's.
    """
    return JobProfile(
        name="tpch-selection",
        scan_rate_mb_s=32.0,
        map_cpu_s_per_mb=0.5 / 64.0,
        task_startup_s=1.2,
        map_share_beta=0.40,
        reduce_total_s=24.0,
        reduce_share_gamma=0.30,
        num_reduce_tasks=30,
        map_output_mb_per_input_mb=0.10,
        map_output_records_per_mb=1100.0 * 0.10,
        reduce_output_records=6_000_000.0,
        reduce_output_mb=400.0,
    )
