"""The task-duration cost model.

This is the quantitative heart of the simulator: it converts (block size,
batch size, node speed, workload profile) into task durations.  See
:mod:`repro.mapreduce.profile` for how the constants were calibrated against
the paper's Figure 3 and Table I.

Model summary
-------------
Map task over one block shared by a batch of ``n`` jobs on a node of
relative speed ``s``::

    t_map = (startup + size/scan_rate + size * cpu * (1 + beta*(n-1))) / s
            [+ size / link_bw   if the block is read remotely]

Reduce task of a (possibly combined) job covering a fraction ``phi`` of the
input file::

    t_reduce = reduce_total_s * phi * (1 + gamma*(n-1)) / s

Fixed overheads:

* ``job_submit_overhead_s`` — client-to-JobTracker submission latency plus
  job initialisation, paid once per job (FIFO), per batch (MRShare) or per
  merged sub-job *iteration* (S3).  The S3 variant may be configured lower
  (``subjob_overhead_s``) because sub-jobs reuse the parent job's setup, but
  it is paid once *per iteration*, which is exactly the communication cost
  that lets MRShare's single batch beat S3 under dense arrivals
  (Section V.D).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import ConfigError
from .profile import JobProfile


@dataclass(frozen=True)
class CostModel:
    """Engine-level cost constants (workload-independent)."""

    #: One-off latency between a job/batch submission and its first task
    #: launch (job initialisation, split computation, heartbeat round-trip).
    job_submit_overhead_s: float = 12.0
    #: Latency to build and launch one merged sub-job iteration in S3.
    subjob_overhead_s: float = 2.0
    #: Network bandwidth for remote block reads, MB/s.
    link_bandwidth_mb_s: float = 120.0
    #: Relative task-duration jitter (0 disables; used by robustness tests).
    duration_jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.job_submit_overhead_s < 0 or self.subjob_overhead_s < 0:
            raise ConfigError("overheads must be non-negative")
        if self.link_bandwidth_mb_s <= 0:
            raise ConfigError("link_bandwidth_mb_s must be positive")
        if self.duration_jitter < 0:
            raise ConfigError("duration_jitter must be non-negative")

    # ------------------------------------------------------------------ map
    def map_task_duration(self, profile: JobProfile, block_mb: float,
                          batch_size: int, *, node_speed: float = 1.0,
                          local: bool = True) -> float:
        """Duration of one map task over one block serving ``batch_size`` jobs."""
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        if block_mb <= 0:
            raise ConfigError(f"block_mb must be positive, got {block_mb}")
        if node_speed <= 0:
            raise ConfigError(f"node_speed must be positive, got {node_speed}")
        scan = block_mb / profile.scan_rate_mb_s
        cpu = block_mb * profile.map_cpu_s_per_mb \
            * (1.0 + profile.map_share_beta * (batch_size - 1))
        duration = (profile.task_startup_s + scan + cpu) / node_speed
        if not local:
            duration += block_mb / self.link_bandwidth_mb_s
        return duration

    # --------------------------------------------------------------- reduce
    def reduce_task_duration(self, profile: JobProfile, batch_size: int, *,
                             file_fraction: float = 1.0,
                             node_speed: float = 1.0) -> float:
        """Duration of one reduce task of a batch covering ``file_fraction``.

        With ``num_reduce_tasks`` <= cluster reduce slots the reduce phase is
        a single wave, so task duration equals phase duration.
        """
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        if not 0.0 < file_fraction <= 1.0 + 1e-9:
            raise ConfigError(f"file_fraction must be in (0, 1], got {file_fraction}")
        if node_speed <= 0:
            raise ConfigError(f"node_speed must be positive, got {node_speed}")
        phase = profile.reduce_total_s * file_fraction \
            * (1.0 + profile.reduce_share_gamma * (batch_size - 1))
        return phase / node_speed

    # ------------------------------------------------------------ aggregate
    def single_job_map_phase_s(self, profile: JobProfile, num_blocks: int,
                               block_mb: float, map_slots: int) -> float:
        """Analytic map-phase makespan of one job on a homogeneous cluster."""
        if map_slots <= 0:
            raise ConfigError("map_slots must be positive")
        waves = -(-num_blocks // map_slots)  # ceil division
        return waves * self.map_task_duration(profile, block_mb, 1)

    def combined_job_makespan_s(self, profile: JobProfile, batch_size: int,
                                num_blocks: int, block_mb: float,
                                map_slots: int) -> float:
        """Analytic makespan of a combined (batched) job of ``batch_size``."""
        waves = -(-num_blocks // map_slots)
        return (self.job_submit_overhead_s
                + waves * self.map_task_duration(profile, block_mb, batch_size)
                + self.reduce_task_duration(profile, batch_size))
