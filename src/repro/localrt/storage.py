"""On-disk block store: a miniature single-machine HDFS.

A *stored file* is a directory of block files (``block_00000.dat``, ...),
each approximately ``block_size`` bytes and always ending at a line
boundary (so record readers never straddle blocks; real HDFS splits
mid-record and compensates in the reader — same observable behaviour,
simpler bookkeeping).  Byte-level read counters make scan sharing
measurable: the whole point of the local runtime is to show S3 reading
each block once per batch instead of once per job.

The counter model distinguishes two layers:

* **logical** reads (``blocks_read`` / ``bytes_read``) — one per block
  *visit* (``read_block_bytes`` or ``visit_block``), however it was
  served.  This is what scan-sharing accounting measures: how many
  block visits the schedule required.
* **physical** reads (``physical_blocks_read`` / ``physical_bytes_read``)
  — actual trips to disk.

A visit is served by the first of three tiers that can answer it:

1. **view-served** (``view_blocks_read``) — the handle's
   :class:`~repro.localrt.tokens.DerivedViews` table kept everything the
   visit's riders use, so the visit loads no bytes at all
   (``visit_block``: no cache lookup, no disk read);
2. **cache** (``cache_hits``) — a
   :class:`~repro.localrt.cache.BlockCache` holds the block's bytes;
3. **disk** (``cache_misses`` when a cache is attached, and always a
   physical read).

So on a store without a cache, ``blocks_read == physical_blocks_read +
view_blocks_read``.  Every read is counted by the store that serves it.
:class:`ReadStats` is the one book of these numbers: the cache keeps no
counters of its own, so a hit, a miss or an eviction is booked once,
here, beside the read it belongs to.
"""

from __future__ import annotations

import mmap
import pathlib
import threading
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Iterable, Iterator

from ..analysis.lockgraph import ordered_lock
from ..analysis.racecheck import register_instance
from ..common.errors import ExecutionError
from .tokens import DerivedViews

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.tracer import Tracer
    from .cache import BlockCache


def iter_block_payloads(lines: Iterable[str],
                        block_size_bytes: int) -> Iterator[bytes]:
    """Chunk ``lines`` into line-aligned block payloads of
    ~``block_size_bytes`` each.

    The one chunking rule every store layout shares: lines are UTF-8,
    blocks always end at a line boundary, and a block closes once it
    reaches the target size.  :meth:`BlockStore.create` writes each
    payload to one file; the sharded store writes each payload to every
    replica shard — byte-identical block content either way.
    """
    if block_size_bytes <= 0:
        raise ExecutionError("block_size_bytes must be positive")
    buffer: list[bytes] = []
    buffered = 0
    for line in lines:
        if "\n" in line:
            raise ExecutionError("input lines must not contain newlines")
        try:
            encoded = (line + "\n").encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ExecutionError(
                f"input line {line!r} is not encodable as UTF-8 "
                f"({exc})") from exc
        buffer.append(encoded)
        buffered += len(encoded)
        if buffered >= block_size_bytes:
            yield b"".join(buffer)
            buffer = []
            buffered = 0
    if buffer:
        yield b"".join(buffer)


def read_block_file(path: pathlib.Path) -> tuple[bytes, bool]:
    """One actual disk read of a block file: ``(bytes, mapped)``.

    Reads via ``mmap`` when the file can be mapped (zero kernel buffer
    copy; the bytes are materialized once so the mapping can be closed
    immediately) and falls back to a plain buffered read for anything
    unmappable — empty files, exotic filesystems.  Counts nothing: the
    caller charges it.
    """
    try:
        with open(path, "rb") as handle:
            with mmap.mmap(handle.fileno(), 0,
                           access=mmap.ACCESS_READ) as view:
                return bytes(view), True
    except (ValueError, OSError):
        return path.read_bytes(), False


@dataclass
class ReadStats:
    """Cumulative I/O counters of one :class:`BlockStore`.

    ``blocks_read``/``bytes_read`` are *logical* (one per block visit;
    byte-identical with or without a cache or a derived-view table).
    ``view_blocks_read`` counts the visits the derived-view table
    answered with no bytes loaded.  The remaining fields describe the
    *physical* path below it: disk reads, cache hit/miss/eviction
    traffic (``cache_hits``/``cache_misses`` count
    :class:`~repro.localrt.cache.BlockCache` lookups only) and
    prefetcher activity.
    """

    blocks_read: int = 0
    bytes_read: int = 0
    physical_blocks_read: int = 0
    physical_bytes_read: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    prefetched_blocks: int = 0
    #: Physical reads satisfied via ``mmap`` rather than a buffered
    #: ``read()``.  Diagnostic only — hosts without usable mmap fall
    #: back silently and the returned bytes are identical.
    mmap_blocks_read: int = 0
    #: Logical reads served by a non-primary replica because the
    #: primary's shard was down (sharded stores only; see
    #: :mod:`repro.localrt.sharded`).  A subset of ``blocks_read``;
    #: always 0 for a single :class:`BlockStore`.
    replica_fallback_reads: int = 0
    #: Logical reads the handle's derived-view table answered: no cache
    #: lookup, no bytes loaded (``visit_block``).  A subset of
    #: ``blocks_read``.
    view_blocks_read: int = 0

    def snapshot(self) -> "ReadStats":
        """An independent copy (for before/after deltas)."""
        return replace(self)

    def delta(self, before: "ReadStats") -> "ReadStats":
        """Field-wise ``self - before`` (counters accumulated since
        ``before`` was snapshotted)."""
        return ReadStats(**{
            spec.name: getattr(self, spec.name) - getattr(before, spec.name)
            for spec in fields(self)})

    @property
    def cache_hit_ratio(self) -> float:
        """Demand hits served from memory over demand visits that asked
        memory (0.0 before the first).

        A view-served read (``view_blocks_read``) counts as a hit: the
        derived-view table is a tier above the cache, and it answered
        without the cache being asked.  Prefetcher loads are not
        lookups; a prefetched block's first demand read counts as a
        hit, which is exactly the point.
        """
        hits = self.cache_hits + self.view_blocks_read
        lookups = hits + self.cache_misses
        return hits / lookups if lookups else 0.0


class BlockStore:
    """A file stored as line-aligned blocks in a directory.

    ``cache`` optionally attaches a :class:`~repro.localrt.cache.BlockCache`
    so repeat block visits are served from memory; logical counters are
    unaffected (see module docstring).  Block sizes and offsets are
    stat'ed once at open and served from memory afterwards — the store
    assumes its directory is immutable while open (as HDFS blocks are).
    """

    BLOCK_PATTERN = "block_{:05d}.dat"

    def __init__(self, directory: pathlib.Path | str, *,
                 cache: "BlockCache | None" = None) -> None:
        self.directory = pathlib.Path(directory)
        if not self.directory.is_dir():
            raise ExecutionError(f"no such block store: {self.directory}")
        self._blocks = sorted(self.directory.glob("block_*.dat"))
        if not self._blocks:
            raise ExecutionError(f"block store {self.directory} is empty")
        #: Guards the read counters (the prefetcher's thread and two
        #: runners sharing this handle read concurrently).  Built under
        #: REPRO_LOCKCHECK=1, it records its order against the cache and
        #: prefetcher locks and cycles fail fast.
        self._stats_lock = ordered_lock("BlockStore._stats_lock")
        self.stats = ReadStats()  # guarded-by: _stats_lock
        register_instance(
            self.stats, fields=tuple(f.name for f in fields(ReadStats)),
            guard="BlockStore._stats_lock", label="BlockStore.stats")
        #: Byte offset of each block within the logical file, and each
        #: block's on-disk size (one stat per block, at open only).
        self._offsets: list[int] = []
        self._sizes: list[int] = []
        offset = 0
        for path in self._blocks:
            size = path.stat().st_size
            self._offsets.append(offset)
            self._sizes.append(size)
            offset += size
        self._total_bytes = offset
        self.cache = cache
        #: Block index -> the event its one in-flight cache fill sets
        #: when done, so a prefetch and a demand read of one block (or
        #: two demand reads) go to disk once between them.  A leaf:
        #: nothing is acquired while it is held.  Replaced, never
        #: mutated, so the lockset checker sees every change.
        self._inflight_lock = ordered_lock("BlockStore._inflight_lock")
        self._inflight: dict[int, threading.Event] = {}  # guarded-by: _inflight_lock
        register_instance(self, fields=("_inflight",),
                          guard="BlockStore._inflight_lock")
        #: Compact derived views of this handle's blocks, kept from one
        #: lap of a scan to the next; a visit they fully answer loads no
        #: bytes (:meth:`visit_block`).  Per handle, in memory, gone
        #: with it.
        self.derived = DerivedViews()

    # -------------------------------------------------------------- creation
    @classmethod
    def create(cls, directory: pathlib.Path | str, lines: Iterable[str],
               block_size_bytes: int, *,
               cache: "BlockCache | None" = None) -> "BlockStore":
        """Write ``lines`` into line-aligned blocks of ~``block_size_bytes``.

        Lines are stored as UTF-8; a line that cannot be encoded (e.g. a
        lone surrogate) raises :class:`ExecutionError` naming the line.
        """
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        existing = list(directory.glob("block_*.dat"))
        if existing:
            raise ExecutionError(
                f"{directory} already contains {len(existing)} blocks")
        block_index = 0
        for payload in iter_block_payloads(lines, block_size_bytes):
            path = directory / cls.BLOCK_PATTERN.format(block_index)
            path.write_bytes(payload)
            block_index += 1
        if block_index == 0:
            raise ExecutionError("cannot create a block store from no lines")
        return cls(directory, cache=cache)

    # ---------------------------------------------------------------- access
    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    def block_size_bytes(self, index: int) -> int:
        """On-disk byte size of block ``index`` (from the open-time stat
        cache — no syscall)."""
        self._check(index)
        return self._sizes[index]

    def block_offset(self, index: int) -> int:
        """Byte offset of block ``index`` in the logical file."""
        self._check(index)
        return self._offsets[index]

    def block_locations(self, index: int) -> tuple[str, ...]:
        """Replica holders of block ``index``, most-preferred first.

        A single store has no placement to speak of — every block lives
        on the one synthetic ``"local"`` node.  The sharded store
        returns real shard names here, which is what makes schedulers
        and the service's file view locality-aware without caring which
        store implementation they hold.
        """
        self._check(index)
        return ("local",)

    def attach_cache(self, cache: "BlockCache | None") -> None:
        """Attach (or detach, with ``None``) a block cache."""
        self.cache = cache

    @property
    def has_cache(self) -> bool:
        """True when a block cache is attached."""
        return self.cache is not None

    def ensure_cache(self, capacity_bytes: int) -> None:
        """Attach a :class:`~repro.localrt.cache.BlockCache` of
        ``capacity_bytes`` unless one is already attached (idempotent —
        repeat runners over the same store share the existing cache)."""
        if self.cache is None:
            from .cache import BlockCache
            self.cache = BlockCache(capacity_bytes)

    def attach_tracer(self, tracer: "Tracer | None") -> None:
        """Accept an event sink (placement-aware stores emit
        ``shard.read`` / ``shard.failover``; a single store has nothing
        to report, so this is a no-op kept for interface parity)."""

    def stats_snapshot(self) -> ReadStats:
        """Consistent copy of the I/O counters, taken under the stats
        lock — the only way to read multi-field deltas without tearing
        while reader threads are running."""
        with self._stats_lock:
            return self.stats.snapshot()

    def logical_blocks_read(self) -> int:
        """Current logical ``blocks_read``, read under the stats lock
        (the prefetcher's demand-progress signal)."""
        with self._stats_lock:
            return self.stats.blocks_read

    def read_block_bytes(self, index: int) -> bytes:
        """Read one block's raw bytes, updating the I/O counters.

        Always charges one *logical* block read; goes to disk (and
        charges a *physical* read) only when no cache is attached or the
        block is not resident.  No decode, and a cached block is
        returned as the same immutable ``bytes`` object that is resident
        in the cache.
        """
        self._check(index)
        data = self._load_bytes(index)
        with self._stats_lock:
            self.stats.blocks_read += 1
            self.stats.bytes_read += self._sizes[index]
        return data

    def visit_block(self, index: int) -> None:
        """Charge one logical read of block ``index`` that the derived-view
        table answered (``view_blocks_read``): no cache lookup and no
        disk read, so no physical or cache counter moves."""
        self._check(index)
        with self._stats_lock:
            self.stats.blocks_read += 1
            self.stats.bytes_read += self._sizes[index]
            self.stats.view_blocks_read += 1

    def prefetch_block(self, index: int) -> bool:
        """Warm block ``index`` into the cache without logical accounting.

        Returns True when the block was actually loaded from disk; False
        when there is no cache, the block is already resident, or another
        reader was filling it (this waits for that fill).  Used by
        the read-ahead prefetcher: the physical read is charged, but no
        logical read and no cache hit/miss — the demand read that follows
        will record the hit.
        """
        self._check(index)
        cache = self.cache
        if cache is None or cache.contains(index) or not self._claim(index):
            return False
        try:
            if cache.contains(index):  # filled before the claim
                return False
            data = self._physical_read_bytes(index)
            evicted = cache.put(index, data, self._sizes[index])
        finally:
            self._release(index)
        with self._stats_lock:
            self.stats.prefetched_blocks += 1
            if evicted:
                self.stats.cache_evictions += evicted
        return True

    def _load_bytes(self, index: int) -> bytes:
        """Fetch block bytes via the cache (charging hit/miss/eviction
        and, on the miss path, physical counters) — no logical charge.

        A miss on a block another reader is already filling waits for
        that fill and takes its bytes as a hit; if they were evicted
        meanwhile, it fills the cache itself."""
        cache = self.cache
        if cache is None:
            return self._physical_read_bytes(index)
        while True:
            data = cache.get(index)
            if data is not None:
                with self._stats_lock:
                    self.stats.cache_hits += 1
                return data
            if self._claim(index):
                if not cache.contains(index):  # not filled before the claim
                    break
                self._release(index)
        try:
            with self._stats_lock:
                self.stats.cache_misses += 1
            data = self._physical_read_bytes(index)
            evicted = cache.put(index, data, self._sizes[index])
        finally:
            self._release(index)
        if evicted:
            with self._stats_lock:
                self.stats.cache_evictions += evicted
        return data

    def _claim(self, index: int) -> bool:
        """Make this caller the one filling the cache with block
        ``index``; ``False`` after waiting out a fill already in flight
        (the caller looks in the cache again)."""
        with self._inflight_lock:
            pending = self._inflight.get(index)
            if pending is None:
                self._inflight = {**self._inflight, index: threading.Event()}
                return True
        pending.wait()
        return False

    def _release(self, index: int) -> None:
        """End this caller's fill of block ``index`` and wake its
        waiters."""
        with self._inflight_lock:
            inflight = dict(self._inflight)
            done = inflight.pop(index)
            self._inflight = inflight
        done.set()

    def _physical_read_bytes(self, index: int) -> bytes:
        """One actual disk read (always charged to the physical counters)."""
        data, mapped = read_block_file(self._blocks[index])
        with self._stats_lock:
            self.stats.physical_blocks_read += 1
            self.stats.physical_bytes_read += len(data)
            if mapped:
                self.stats.mmap_blocks_read += 1
        return data

    def _check(self, index: int) -> None:
        if not 0 <= index < self.num_blocks:
            raise ExecutionError(
                f"block index {index} out of range (n={self.num_blocks})")
