"""Extensions beyond the core S3 scheduler: the Section V.G output
collection schemes."""

from .aggregation import (
    CollectionComparison,
    compare_collection_schemes,
    fold_partial_aggregates,
)

__all__ = [
    "CollectionComparison", "compare_collection_schemes",
    "fold_partial_aggregates",
]
