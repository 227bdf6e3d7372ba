"""Shared infrastructure: configuration, errors, units, ids, clock and RNG."""

from .config import (
    ClusterConfig,
    DfsConfig,
    ExecutionConfig,
    TraceConfig,
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
from .rng import DEFAULT_SEED, make_rng
from .units import fmt_duration, fmt_size_mb, gb

__all__ = [
    "ClusterConfig", "DfsConfig", "ExecutionConfig", "TraceConfig",
    "AdmissionRejected", "ConfigError", "DfsError", "ExecutionError",
    "ExperimentError", "ReproError", "SchedulingError", "ServiceError",
    "SimulationError", "WorkloadError",
    "DEFAULT_SEED", "make_rng",
    "fmt_duration", "fmt_size_mb", "gb",
]
