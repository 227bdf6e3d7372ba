"""Workload definitions: arrival patterns, wordcount and selection families,
plus real data generators for the local runtime."""

from .arrivals import dense, poisson, sparse_groups, uniform, validate_arrivals
from .selection import (
    DEFAULT_SELECTIVITY,
    LINEITEM_FILE,
    LINEITEM_SIZE_MB,
    SelectionWorkload,
    selection_workload,
)
from .wordcount import (
    CORPUS_FILE,
    CORPUS_SIZE_MB,
    DEFAULT_PATTERNS,
    WordcountWorkload,
    heavy_workload,
    normal_workload,
    table1_statistics,
)

__all__ = [
    "dense", "poisson", "sparse_groups", "uniform", "validate_arrivals",
    "DEFAULT_SELECTIVITY", "LINEITEM_FILE", "LINEITEM_SIZE_MB",
    "SelectionWorkload", "selection_workload",
    "CORPUS_FILE", "CORPUS_SIZE_MB", "DEFAULT_PATTERNS",
    "WordcountWorkload", "heavy_workload", "normal_workload",
    "table1_statistics",
]
