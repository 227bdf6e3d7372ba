"""A real (executing) single-machine mini-MapReduce runtime with S3-style
shared scanning, used to demonstrate byte-level scan sharing on real data."""

from .api import (
    BlockData,
    BlockMapper,
    BlockStoreProtocol,
    IdentityReducer,
    JobResult,
    LocalJob,
    Mapper,
    Record,
    Reducer,
    SumReducer,
    default_partitioner,
)
from .counters import FRAMEWORK_GROUP, Counters, CounterUser
from .engine import (
    JobRunState,
    collect_map_outputs,
    count_pending_values,
    run_reduce,
)
from .jobs import (
    AggregationBlockMapper,
    AggregationMapper,
    DelimitedBlockMapper,
    PatternWordCount,
    PatternWordCountBlock,
    SelectionBlockMapper,
    SelectionMapper,
    aggregation_job,
    selection_job,
    wordcount_job,
)
from .live import SharedScanCore
from .output import SUCCESS_MARKER, write_output
from .parallel import (
    MapTaskSpec,
    SerialMapBackend,
    execute_map_wave,
    make_backend,
)
from .records import DelimitedReader, RecordReader, TextLineReader
from .runners import FifoLocalRunner, RunReport, SharedScanRunner
from .sharded import ShardedBlockStore
from .storage import BlockStore, ReadStats

__all__ = [
    "BlockData", "BlockMapper", "BlockStoreProtocol", "IdentityReducer",
    "JobResult", "LocalJob",
    "Mapper", "Record", "Reducer", "SumReducer", "default_partitioner",
    "FRAMEWORK_GROUP", "Counters", "CounterUser",
    "JobRunState", "collect_map_outputs", "count_pending_values",
    "run_reduce",
    "MapTaskSpec", "SerialMapBackend", "execute_map_wave", "make_backend",
    "AggregationBlockMapper", "AggregationMapper", "DelimitedBlockMapper",
    "PatternWordCount", "PatternWordCountBlock", "SelectionBlockMapper",
    "SelectionMapper", "aggregation_job", "selection_job", "wordcount_job",
    "SUCCESS_MARKER", "write_output",
    "DelimitedReader", "RecordReader", "TextLineReader",
    "FifoLocalRunner", "RunReport", "SharedScanCore", "SharedScanRunner",
    "BlockStore", "ReadStats", "ShardedBlockStore",
]
