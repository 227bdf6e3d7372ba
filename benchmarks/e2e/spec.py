"""Workload definitions and seeded inputs of the end-to-end benchmark.

A :class:`Workload` fixes everything the system sees — corpus, store
layout, execution config, job mix, loop type and rate — and is the only
place those numbers live.  ``--seed`` reaches the system solely through
:func:`pattern_order` (which job definition the k-th job uses) and
:func:`open_schedule` (when open-loop jobs are due); the corpus never
depends on it, so the FIFO oracle and every run of a workload scan the
same bytes.
"""

from __future__ import annotations

import dataclasses
import itertools
import pathlib
from typing import Iterator

from repro.common.config import ExecutionConfig
from repro.common.rng import make_rng
from repro.localrt import (
    BlockStore,
    BlockStoreProtocol,
    DelimitedReader,
    LocalJob,
    RecordReader,
    ShardedBlockStore,
    TextLineReader,
    aggregation_job,
    selection_job,
    wordcount_job,
)
from repro.service import ServiceConfig
from repro.workloads.arrivals import ArrivalEvent, poisson_streams
from repro.workloads.text import TextCorpusGenerator
from repro.workloads.tpch import (
    LINEITEM_COLUMNS,
    LineitemGenerator,
    quantity_threshold_for_selectivity,
)

KB = 1 << 10
MB = 1 << 20

#: Map workers wherever a pooled backend is used: the host reports two
#: cores; never ``None`` (one per core would make runs host-dependent).
MAP_WORKERS = 2

#: Jobs of each workload's schedule that the traced replay covers.
REPLAY_JOBS = 64

#: Warm-up jobs drained during set-up (regex cache, pools, block cache).
WARMUP_JOBS = 4

#: Eight wordcount patterns that all match part of the syllable
#: vocabulary (``^th.*``-style patterns from the paper workload match
#: nothing in it and would make three of eight jobs map-only no-ops).
PATTERNS = (".*ing$", ".*ed$", ".*tion$", "^s.*e$",
            ".*ness$", ".*ly$", "^b.*", ".*s$")

#: One ``sel_batch`` batch: six selections (2/5/10 % twice) and two
#: aggregations; job *i* is admitted at iteration *i*.
BATCH_DEFINITIONS = ("sel02", "sel05", "sel10", "sel02", "sel05", "sel10",
                     "agg", "agg")

#: The generators cost ~1 s per MB, so a corpus is the first
#: ``CORPUS_TILE_BYTES`` of the generator's stream repeated to size:
#: per-block content (what every kernel's cost depends on) is unchanged,
#: and three set-ups per run stay affordable.
CORPUS_TILE_BYTES = 1 * MB


@dataclasses.dataclass(frozen=True)
class Workload:
    """One named benchmark workload (see README.md for the rationale)."""

    name: str
    why: str
    #: ``closed`` (service, fixed in-flight count), ``open`` (service,
    #: Poisson arrivals) or ``batch`` (``SharedScanRunner.run`` back to back).
    loop: str
    corpus: str                      # "text" | "lineitem"
    corpus_bytes: int
    block_bytes: int
    blocks_per_segment: int = 4
    map_backend: str = "serial"
    cache_bytes: int | None = None
    prefetch_depth: int = 0
    in_flight: int = 0               # closed loops
    tenants: int = 0                 # open loops
    #: Open loops: the offered rate, all tenants together.  Closed loops:
    #: the seed's throughput on the reference host, which sizes a window
    #: in jobs, so that every run retains the same number of results.
    rate_per_s: float = 0.0
    max_pending: int | None = None
    shards: int = 0                  # > 0: ShardedBlockStore, R=2
    #: Traced replay: scan iterations per schedule second.
    replay_ips: float = 1.0

    @property
    def jobs_per_operation(self) -> int:
        return len(BATCH_DEFINITIONS) if self.loop == "batch" else 1

    @property
    def definitions(self) -> tuple[str, ...]:
        """Distinct job definitions (what the oracle runs once each)."""
        if self.corpus == "text":
            return PATTERNS
        return tuple(dict.fromkeys(BATCH_DEFINITIONS))

    def load(self) -> str:
        """Loop type and rate / in-flight count, for the host record."""
        if self.loop == "closed":
            return f"closed, {self.in_flight} in flight"
        if self.loop == "open":
            return (f"open, Poisson {self.rate_per_s:g} jobs/s over "
                    f"{self.tenants} tenants")
        return "closed, 1 client, 8-job batches back to back"

    def execution(self) -> ExecutionConfig:
        return ExecutionConfig(
            map_backend=self.map_backend, map_workers=MAP_WORKERS,
            cache_capacity_bytes=self.cache_bytes,
            prefetch_depth=self.prefetch_depth,
            blocks_per_segment=self.blocks_per_segment)

    def service_config(self) -> ServiceConfig:
        return ServiceConfig(execution=self.execution(),
                             max_pending=self.max_pending,
                             overload_policy="reject")

    def reader(self) -> RecordReader:
        if self.corpus == "lineitem":
            return DelimitedReader("|", len(LINEITEM_COLUMNS))
        return TextLineReader()


WORKLOADS = (
    Workload(
        name="wc_dense",
        why="closed loop, 8 wordcount jobs always in flight on 4 MB text: "
            "the paper's dense pattern, ~8 jobs share every block, so "
            "per-job map and shuffle work dominates",
        loop="closed", in_flight=8, rate_per_s=28.0, corpus="text",
        corpus_bytes=4 * MB, block_bytes=128 * KB),
    Workload(
        name="wc_sparse",
        why="open loop, Poisson 10 jobs/s on 1 MB text: the paper's sparse "
            "pattern, sharing ~1.2, so each job pays the whole block derive "
            "and the idle-to-busy wake-up; bypasses sharing optimisations",
        loop="open", tenants=2, rate_per_s=10.0, corpus="text",
        corpus_bytes=1 * MB, block_bytes=32 * KB, replay_ips=200.0),
    Workload(
        name="wc_procs",
        why="wc_dense with map_backend=processes and 2 workers: same corpus, "
            "loop and jobs, so the difference is the parallel layer (pickle "
            "per task, private worker stores, parent-side absorb)",
        loop="closed", in_flight=8, rate_per_s=28.0, corpus="text",
        corpus_bytes=4 * MB, block_bytes=128 * KB, map_backend="processes"),
    Workload(
        name="core_churn",
        why="open loop, Poisson 40 jobs/s on 64 KB text in 1 KB blocks with "
            "a resident cache: map work is negligible, so service and "
            "scheduler overhead per job and entry retention are the cost",
        loop="open", tenants=3, rate_per_s=40.0, corpus="text",
        corpus_bytes=64 * KB, block_bytes=1 * KB, blocks_per_segment=2,
        cache_bytes=1 * MB, max_pending=64, replay_ips=3000.0),
    Workload(
        name="sel_batch",
        why="batch SharedScanRunner on sharded lineitem with threads, a "
            "half-corpus cache, prefetch and a shard failure: the second "
            "scan loop, numpy kernels, routing and replica fallback",
        loop="batch", corpus="lineitem", corpus_bytes=4 * MB,
        block_bytes=128 * KB, map_backend="threads", cache_bytes=2 * MB,
        prefetch_depth=4, shards=4),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


# ------------------------------------------------------------------ corpus
def corpus_lines(workload: Workload) -> Iterator[str]:
    """The workload's corpus: seed-independent, generated at set-up."""
    tile_bytes = min(workload.corpus_bytes, CORPUS_TILE_BYTES)
    if workload.corpus == "text":
        source = TextCorpusGenerator(5000, seed=7).lines(tile_bytes)
    else:
        source = LineitemGenerator(seed=11).rows_for_bytes(tile_bytes)
    tile = list(source)
    emitted = 0
    for line in itertools.cycle(tile):
        if emitted >= workload.corpus_bytes:
            return
        emitted += len(line) + 1
        yield line


def create_store(workload: Workload,
                 directory: pathlib.Path) -> BlockStoreProtocol:
    lines = corpus_lines(workload)
    if workload.shards:
        return ShardedBlockStore.create(
            directory, lines, workload.block_bytes,
            num_shards=workload.shards, replication=2)
    return BlockStore.create(directory, lines, workload.block_bytes)


def open_fresh(workload: Workload,
               directory: pathlib.Path) -> BlockStoreProtocol:
    """A new handle (own counters, no cache) on an existing store."""
    if workload.shards:
        return ShardedBlockStore(directory)
    return BlockStore(directory)


# -------------------------------------------------------------------- jobs
def make_job(definition: str, job_id: str) -> LocalJob:
    """Build one job of a named definition (a pattern, ``selNN`` or ``agg``)."""
    if definition == "agg":
        return aggregation_job(job_id)
    if definition.startswith("sel"):
        selectivity = int(definition[3:]) / 100.0
        return selection_job(
            job_id, quantity_threshold_for_selectivity(selectivity))
    return wordcount_job(job_id, definition)


def pattern_order(seed: int) -> tuple[str, ...]:
    """The seed's cyclic order of the eight wordcount patterns."""
    order = make_rng(seed).permutation(len(PATTERNS))
    return tuple(PATTERNS[int(index)] for index in order)


def definition_cycle(workload: Workload, seed: int) -> tuple[str, ...]:
    """Job definitions of a run, cyclically: job (or batch slot) ``k``
    uses ``cycle[k % len(cycle)]``.  Only text workloads depend on the
    seed; computed once per run, not per job."""
    if workload.corpus == "text":
        return pattern_order(seed)
    return BATCH_DEFINITIONS


# --------------------------------------------------------------- schedules
def open_schedule(workload: Workload, seed: int,
                  seconds: float) -> list[ArrivalEvent]:
    """Exactly ``rate x seconds`` Poisson arrivals inside ``seconds``.

    A Poisson count over a fixed horizon varies by 1/sqrt(N) from seed to
    seed, which would put that much noise into ``jobs_per_s``; a Poisson
    process conditioned on its count is what this is — draw the
    inter-arrival gaps, keep the first N arrivals, rescale them onto the
    horizon.
    """
    count = max(1, round(workload.rate_per_s * seconds))
    tenant_rate = workload.rate_per_s / workload.tenants
    tenants = {f"tenant_{index}": 1.0 / tenant_rate
               for index in range(workload.tenants)}
    # Twice the fair share per tenant: the merged stream's first N
    # arrivals never run out of any tenant's draws.
    events = poisson_streams(tenants, 2 * count // workload.tenants + 8,
                             seed=seed)[:count]
    scale = (seconds - 0.5 / workload.rate_per_s) / events[-1].time
    return [dataclasses.replace(event, time=event.time * scale)
            for event in events]


def replay_schedule(workload: Workload, seed: int) -> list[ArrivalEvent]:
    """The first :data:`REPLAY_JOBS` arrivals, for the traced replay.

    Open loops replay their own schedule (mapped to iterations by
    ``replay_ips``).  A closed loop in steady state finishes and admits
    one job every ``pass / in_flight`` iterations, so its replay starts
    ``in_flight`` jobs at once and then admits at that pace.
    """
    if workload.loop == "open":
        seconds = REPLAY_JOBS / workload.rate_per_s
        return open_schedule(workload, seed, seconds)
    num_blocks = -(-workload.corpus_bytes // workload.block_bytes)
    per_pass = -(-num_blocks // workload.blocks_per_segment)
    pace = per_pass / workload.in_flight
    return [ArrivalEvent(time=max(0, index - workload.in_flight + 1) * pace,
                         tenant="tenant_0", index=index)
            for index in range(REPLAY_JOBS)]
