"""Configuration dataclasses shared across the simulator packages.

The defaults reproduce the paper's testbed (Section V.A):

* 1 master + 40 slave nodes, three racks of 10-15 nodes, 1 Gbps links;
* 1 map slot per node (40 concurrent map tasks cluster-wide);
* 30 reduce tasks per job;
* HDFS block size 64 MB, replication factor 1;
* speculative execution disabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the simulated cluster.

    Attributes
    ----------
    num_nodes:
        Number of slave nodes (the master is implicit).
    map_slots_per_node:
        Concurrent map tasks a node can run.  The paper uses 1.
    reduce_slots_per_node:
        Concurrent reduce tasks a node can run.  The paper runs 30 reduce
        tasks on 40 nodes, i.e. one slot per node is sufficient.
    rack_sizes:
        Number of nodes in each rack; must sum to ``num_nodes``.
    node_speeds:
        Optional per-node relative speed factors (1.0 = nominal).  Lengths
        must equal ``num_nodes``.  ``None`` means homogeneous.
    link_bandwidth_mbps:
        Network link bandwidth in megabytes/second used by the shuffle model
        (1 Gbps ~ 119 MB/s; we round to 120).
    """

    num_nodes: int = 40
    map_slots_per_node: int = 1
    reduce_slots_per_node: int = 1
    rack_sizes: Sequence[int] = (13, 13, 14)
    node_speeds: Sequence[float] | None = None
    link_bandwidth_mbps: float = 120.0

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigError("num_nodes must be positive")
        if self.map_slots_per_node <= 0 or self.reduce_slots_per_node <= 0:
            raise ConfigError("slot counts must be positive")
        if sum(self.rack_sizes) != self.num_nodes:
            raise ConfigError(
                f"rack_sizes {tuple(self.rack_sizes)} sum to "
                f"{sum(self.rack_sizes)}, expected num_nodes={self.num_nodes}")
        if any(size <= 0 for size in self.rack_sizes):
            raise ConfigError("every rack must contain at least one node")
        if self.node_speeds is not None:
            if len(self.node_speeds) != self.num_nodes:
                raise ConfigError("node_speeds length must equal num_nodes")
            if any(speed <= 0 for speed in self.node_speeds):
                raise ConfigError("node speeds must be positive")
        if self.link_bandwidth_mbps <= 0:
            raise ConfigError("link_bandwidth_mbps must be positive")

    @property
    def total_map_slots(self) -> int:
        """Cluster-wide concurrent map capacity."""
        return self.num_nodes * self.map_slots_per_node


@dataclass(frozen=True)
class DfsConfig:
    """Static description of the simulated distributed file system."""

    block_size_mb: float = 64.0
    replication: int = 1

    def __post_init__(self) -> None:
        if self.block_size_mb <= 0:
            raise ConfigError("block_size_mb must be positive")
        if self.replication < 1:
            raise ConfigError("replication must be >= 1")


#: Names ``ExecutionConfig.map_backend`` accepts; every one runs the
#: in-process map wave (:mod:`repro.localrt.parallel`).
MAP_BACKENDS = ("serial", "threads", "processes")


@dataclass(frozen=True)
class TraceConfig:
    """Whether and where a run records an observability trace.

    Attributes
    ----------
    enabled:
        Turn span/event recording on.  Off (the default) instrumented
        code runs through the no-op tracer fast path.
    path:
        When set, the runner exports its trace here at the end of each
        ``run()`` as Chrome trace-event JSON (loadable in Perfetto /
        ``chrome://tracing``, and by ``python -m repro.obs``) and
        reports the location in ``RunReport.trace_path``.  Requires
        ``enabled=True``.  When ``None`` the trace is only kept in
        memory (or adopted by an active
        :class:`~repro.obs.runtime.TraceSession`).
    """

    enabled: bool = False
    path: str | None = None

    def __post_init__(self) -> None:
        if self.path is not None and not self.enabled:
            raise ConfigError(
                "trace.path is set but trace.enabled is False; "
                "enable tracing to record an export")


@dataclass(frozen=True)
class ExecutionConfig:
    """How the local runtime executes map waves.

    Attributes
    ----------
    map_backend:
        ``"serial"`` (the default), ``"threads"`` or ``"processes"``:
        ``threads`` and ``processes`` are accepted for the fixed
        benchmark definitions and run the in-process wave, and
        ``map_workers`` is validated and ignored.
    map_workers:
        ``None`` or >= 1 (see ``map_backend``).
    cache_capacity_bytes:
        When set, the runners attach a byte-bounded LRU
        :class:`~repro.localrt.cache.BlockCache` of this capacity to the
        block store, so repeat block visits are served from memory.
        ``None`` (the default) disables caching.  Logical read counters
        are unaffected either way.
    prefetch_depth:
        When > 0, a read-ahead prefetcher warms upcoming blocks into the
        cache while the current map wave runs, never running more than
        this many blocks ahead of the demand reads.  Requires
        ``cache_capacity_bytes``.  0 (the default) disables prefetching.
    blocks_per_segment:
        Scan-segment size for the shared-scan runner (the S³ paper's
        segment length, in blocks); the FIFO runner ignores it.
    trace:
        Observability recording knobs (:class:`TraceConfig`); off by
        default.
    """

    map_backend: str = "serial"
    map_workers: int | None = None
    cache_capacity_bytes: int | None = None
    prefetch_depth: int = 0
    blocks_per_segment: int = 4
    trace: TraceConfig = TraceConfig()

    def __post_init__(self) -> None:
        if self.map_backend not in MAP_BACKENDS:
            raise ConfigError(
                f"map_backend must be one of {MAP_BACKENDS}, "
                f"got {self.map_backend!r}")
        if self.map_workers is not None and self.map_workers < 1:
            raise ConfigError(
                f"map_workers must be >= 1 or None (the value is ignored: "
                f"every map wave runs in-process), got {self.map_workers}")
        if (self.cache_capacity_bytes is not None
                and self.cache_capacity_bytes <= 0):
            raise ConfigError(
                f"cache_capacity_bytes must be positive (or None to disable "
                f"caching), got {self.cache_capacity_bytes}")
        if self.prefetch_depth < 0:
            raise ConfigError(
                f"prefetch_depth must be >= 0, got {self.prefetch_depth}")
        if self.prefetch_depth > 0 and self.cache_capacity_bytes is None:
            raise ConfigError(
                "prefetch_depth > 0 requires cache_capacity_bytes: the "
                "prefetcher warms blocks into the block cache")
        if self.blocks_per_segment < 1:
            raise ConfigError(
                f"blocks_per_segment must be >= 1, got "
                f"{self.blocks_per_segment}")
        if not isinstance(self.trace, TraceConfig):
            raise ConfigError(
                f"trace must be a TraceConfig, got {type(self.trace).__name__}")
