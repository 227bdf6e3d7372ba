"""Shared infrastructure: configuration, errors, units, ids, clock and RNG."""

from .config import (
    ClusterConfig,
    DfsConfig,
    ExecutionConfig,
    TraceConfig,
    paper_cluster,
    paper_dfs,
)
from .errors import (
    AdmissionRejected,
    ConfigError,
    DfsError,
    ExecutionError,
    ExperimentError,
    ReproError,
    SchedulingError,
    ServiceError,
    SimulationError,
    WorkloadError,
)
from .ids import IdAllocator
from .rng import DEFAULT_SEED, make_rng
from .units import bytes_to_mb, fmt_duration, fmt_size_mb, gb, mb, mb_to_bytes, minutes

__all__ = [
    "ClusterConfig", "DfsConfig", "ExecutionConfig", "TraceConfig",
    "paper_cluster", "paper_dfs",
    "AdmissionRejected", "ConfigError", "DfsError", "ExecutionError",
    "ExperimentError", "ReproError", "SchedulingError", "ServiceError",
    "SimulationError", "WorkloadError",
    "IdAllocator", "DEFAULT_SEED", "make_rng",
    "bytes_to_mb", "fmt_duration", "fmt_size_mb", "gb", "mb", "mb_to_bytes", "minutes",
]
