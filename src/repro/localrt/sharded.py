"""Sharded block store: N replica shards behind the single-store API.

The paper's cluster spreads a file's blocks over many nodes (replication
1, round-robin — §V); the local runtime until now collapsed that to one
directory.  :class:`ShardedBlockStore` restores the placement dimension
on a single machine: the file's blocks are distributed over ``N`` shard
directories with replication factor ``R`` using the *same*
block→replica mapping as the simulator's DFS
(:func:`repro.dfs.placement.replica_shards` — primary on shard
``i % N``, copies on the next shards around the ring), so scheduling
code can reason about locality identically in both worlds.

Each shard directory is a plain :class:`~repro.localrt.storage.BlockStore`
(block files keep their *global* index in the name, so a shard's sorted
directory listing is its sorted global holdings).  Every read — a
view-served visit (``visit_block``) included — routes to
the first *live* replica — primary first — and failure injection is just
state: :meth:`ShardedBlockStore.fail_shard` marks a shard down in this
handle's memory (nothing is written to disk; every read is routed by
the handle the runner holds) and subsequent reads of its primaries
fail over to replica shards, charging
``replica_fallback_reads`` and emitting ``shard.failover`` events.
Block files are never deleted — a "failed" shard is unavailable, not
erased — and replicas are byte-identical, so job outputs are unchanged
by any failover pattern.

Counter model: each shard store keeps its own
:class:`~repro.localrt.storage.ReadStats` (that is where routed reads
are charged, preserving the logical/physical split per shard), and the
facade aggregates them field-wise on :meth:`stats_snapshot`, folding in
a small ``_extra_stats`` record of its own for ``replica_fallback_reads``.
:meth:`shard_blocks_read` exposes the per-shard logical read balance
that the analyze report tabulates.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import fields
from typing import TYPE_CHECKING, Iterable

from ..analysis.lockgraph import ordered_lock
from ..analysis.racecheck import register_instance
from ..common.errors import ExecutionError
from ..dfs.placement import replica_shards
from .storage import BlockStore, ReadStats, iter_block_payloads
from .tokens import DerivedViews

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.tracer import Tracer

#: Manifest file marking a directory as a sharded store (and recording
#: its geometry).
MANIFEST_NAME = "_shards.json"
#: Shard directory naming, e.g. ``shard_00``.
SHARD_PATTERN = "shard_{:02d}"


def shard_id(index: int) -> str:
    """Directory / location name of shard ``index`` (``shard_03``)."""
    return SHARD_PATTERN.format(index)


class ShardedBlockStore:
    """A file stored as line-aligned blocks across N replica shards.

    Satisfies :class:`~repro.localrt.api.BlockStoreProtocol`: runners,
    the map wave and the scheduler service drive it exactly
    like a single :class:`~repro.localrt.storage.BlockStore`, with two
    additions — placement (``block_locations`` returns real shard names,
    live replicas first) and failure injection (:meth:`fail_shard` /
    :meth:`restore_shard`).
    """

    def __init__(self, directory: pathlib.Path | str) -> None:
        self.directory = pathlib.Path(directory)
        manifest_path = self.directory / MANIFEST_NAME
        if not manifest_path.is_file():
            raise ExecutionError(
                f"{self.directory} has no {MANIFEST_NAME} manifest "
                "(not a sharded block store)")
        try:
            manifest = json.loads(manifest_path.read_text())
            num_shards = int(manifest["num_shards"])
            replication = int(manifest["replication"])
            num_blocks = int(manifest["num_blocks"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ExecutionError(
                f"corrupt shard manifest {manifest_path}: {exc}") from exc
        if num_shards <= 0:
            raise ExecutionError(
                f"manifest num_shards must be positive, got {num_shards}")
        if not 1 <= replication <= num_shards:
            raise ExecutionError(
                f"manifest replication {replication} out of range "
                f"1..{num_shards}")
        if num_blocks <= 0:
            raise ExecutionError(
                f"manifest num_blocks must be positive, got {num_blocks}")
        self._num_shards = num_shards
        self._replication = replication
        self._num_blocks = num_blocks

        # Which global blocks each shard holds (ascending — matching the
        # shard store's sorted directory listing, since block files keep
        # their global index in the name).
        holdings: list[list[int]] = [[] for _ in range(num_shards)]
        for block in range(num_blocks):
            for shard in replica_shards(block, num_shards, replication):
                holdings[shard].append(block)
        self._shard_stores: list[BlockStore | None] = []
        self._local_index: list[dict[int, int]] = []
        for shard in range(num_shards):
            held = holdings[shard]
            if not held:
                # More shards than blocks: this shard holds nothing.
                self._shard_stores.append(None)
                self._local_index.append({})
                continue
            store = BlockStore(self.directory / shard_id(shard))
            if store.num_blocks != len(held):
                raise ExecutionError(
                    f"shard {shard} of {self.directory} holds "
                    f"{store.num_blocks} blocks; manifest expects "
                    f"{len(held)}")
            self._shard_stores.append(store)
            self._local_index.append(
                {block: local for local, block in enumerate(held)})

        # Global geometry, taken from each block's primary replica
        # (replicas are byte-identical, so any replica would do).
        self._sizes: list[int] = []
        self._offsets: list[int] = []
        offset = 0
        for block in range(num_blocks):
            primary = block % num_shards
            store = self._shard_stores[primary]
            if store is None:  # unreachable: a primary always holds its block
                raise ExecutionError(
                    f"shard {primary} missing primary replica of "
                    f"block {block}")
            size = store.block_size_bytes(self._local_index[primary][block])
            self._offsets.append(offset)
            self._sizes.append(size)
            offset += size
        self._total_bytes = offset

        #: Guards the facade's own counters and the down set (shard
        #: stores guard their stats themselves).
        self._lock = ordered_lock("ShardedBlockStore._lock")
        self._extra_stats = ReadStats()  # guarded-by: _lock
        register_instance(
            self._extra_stats,
            fields=tuple(f.name for f in fields(ReadStats)),
            guard="ShardedBlockStore._lock",
            label="ShardedBlockStore._extra_stats")
        self._down: set[int] = set()  # guarded-by: _lock
        self._tracer: "Tracer | None" = None
        #: Derived views by *global* block index, whichever replica
        #: served the bytes (replicas are byte-identical): a view
        #: published before a shard failed is served after it.
        self.derived = DerivedViews()

    # -------------------------------------------------------------- creation
    @classmethod
    def create(cls, directory: pathlib.Path | str, lines: Iterable[str],
               block_size_bytes: int, *, num_shards: int = 4,
               replication: int = 2) -> "ShardedBlockStore":
        """Write ``lines`` into ``num_shards`` replica shards.

        Chunking is identical to :meth:`BlockStore.create` (same
        :func:`~repro.localrt.storage.iter_block_payloads` helper), so a
        sharded store and a single store built from the same lines hold
        byte-identical blocks; each payload is then written to every
        replica shard of its block.
        """
        directory = pathlib.Path(directory)
        if num_shards <= 0:
            raise ExecutionError(
                f"num_shards must be positive, got {num_shards}")
        if not 1 <= replication <= num_shards:
            raise ExecutionError(
                f"replication {replication} out of range 1..{num_shards}")
        directory.mkdir(parents=True, exist_ok=True)
        if (directory / MANIFEST_NAME).exists():
            raise ExecutionError(
                f"{directory} already contains a sharded store")
        for shard in range(num_shards):
            shard_dir = directory / shard_id(shard)
            shard_dir.mkdir(exist_ok=True)
            existing = list(shard_dir.glob("block_*.dat"))
            if existing:
                raise ExecutionError(
                    f"{shard_dir} already contains {len(existing)} blocks")
        num_blocks = 0
        for block, payload in enumerate(
                iter_block_payloads(lines, block_size_bytes)):
            filename = BlockStore.BLOCK_PATTERN.format(block)
            for shard in replica_shards(block, num_shards, replication):
                (directory / shard_id(shard) / filename).write_bytes(payload)
            num_blocks = block + 1
        if num_blocks == 0:
            raise ExecutionError("cannot create a block store from no lines")
        manifest = {"num_shards": num_shards, "replication": replication,
                    "num_blocks": num_blocks}
        (directory / MANIFEST_NAME).write_text(
            json.dumps(manifest, sort_keys=True) + "\n")
        return cls(directory)

    # ---------------------------------------------------------------- access
    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    @property
    def total_bytes(self) -> int:
        """Logical file size (each block counted once, not per replica)."""
        return self._total_bytes

    @property
    def num_shards(self) -> int:
        return self._num_shards

    @property
    def replication(self) -> int:
        return self._replication

    def block_size_bytes(self, index: int) -> int:
        self._check(index)
        return self._sizes[index]

    def block_offset(self, index: int) -> int:
        self._check(index)
        return self._offsets[index]

    def block_locations(self, index: int) -> tuple[str, ...]:
        """Replica shard names for block ``index``, most-preferred first.

        Live replicas come first (primary leading, ring order
        preserved), then any currently-down replica holders — the same
        preference order :meth:`read_block_bytes` routes by, which is what
        makes assignment decisions based on ``locations[0]`` agree with
        where the bytes will actually be served from.
        """
        self._check(index)
        live: list[str] = []
        down: list[str] = []
        for shard in replica_shards(index, self._num_shards,
                                    self._replication):
            target = down if self._is_down(shard) else live
            target.append(shard_id(shard))
        return tuple(live + down)

    # ----------------------------------------------------------- attachments
    def ensure_cache(self, capacity_bytes: int) -> None:
        """Validate ``capacity_bytes`` and do nothing else, as the
        single store's ``ensure_cache`` does: there is no block cache."""
        if capacity_bytes <= 0:
            raise ExecutionError(
                f"cache capacity must be positive, got {capacity_bytes}")

    def attach_tracer(self, tracer: "Tracer | None") -> None:
        """Set the sink for ``shard.read`` / ``shard.failover`` /
        ``shard.down`` / ``shard.up`` events (``None`` detaches)."""
        self._tracer = tracer

    # ------------------------------------------------------ failure injection
    def fail_shard(self, index: int) -> None:
        """Mark shard ``index`` down: subsequent reads of blocks whose
        primary lives there fail over to replica shards.

        The failure is state of this handle only — in memory, nothing
        on disk, invisible to another handle on the same directory.
        Block files are untouched — :meth:`restore_shard` undoes this.
        """
        self._check_shard(index)
        with self._lock:
            self._down.add(index)
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            tracer.event("shard.down", subject="store",
                         args={"shard": shard_id(index)})

    def restore_shard(self, index: int) -> None:
        """Bring shard ``index`` back: reads prefer it again wherever it
        holds the primary replica."""
        self._check_shard(index)
        with self._lock:
            self._down.discard(index)
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            tracer.event("shard.up", subject="store",
                         args={"shard": shard_id(index)})

    def down_shards(self) -> tuple[int, ...]:
        """Currently-down shards, ascending."""
        with self._lock:
            return tuple(sorted(self._down))

    # ------------------------------------------------------------------ reads
    def read_block_bytes(self, index: int) -> bytes:
        """Read one block's raw bytes from its first live replica."""
        store, local, shard, fallback = self._serve(index)
        data = store.read_block_bytes(local)
        self._note_read(index, shard, fallback)
        return data

    def visit_block(self, index: int) -> None:
        """Charge one view-served logical read of block ``index`` to its
        first live replica — routed, booked and traced exactly as
        :meth:`read_block_bytes`, with no bytes loaded."""
        store, local, shard, fallback = self._serve(index)
        store.visit_block(local)
        self._note_read(index, shard, fallback)

    # ------------------------------------------------------------- accounting
    def stats_snapshot(self) -> ReadStats:
        """Field-wise sum of every shard's counters plus the facade's
        own (fallback) record."""
        snaps = [store.stats_snapshot()
                 for store in self._shard_stores if store is not None]
        with self._lock:
            snaps.append(self._extra_stats.snapshot())
        return ReadStats(**{
            spec.name: sum(getattr(snap, spec.name) for snap in snaps)
            for spec in fields(ReadStats)})

    def logical_blocks_read(self) -> int:
        return sum(store.logical_blocks_read()
                   for store in self._shard_stores if store is not None)

    def shard_blocks_read(self) -> tuple[int, ...]:
        """Logical blocks served by each shard so far — the
        read-balance table's raw data."""
        return tuple(
            0 if store is None else store.stats_snapshot().blocks_read
            for store in self._shard_stores)

    # ---------------------------------------------------------------- routing
    def _serve(self, index: int) -> tuple[BlockStore, int, int, bool]:
        """Route ``index`` to its first live replica.

        Returns ``(shard store, local index, shard index, fallback)``
        where ``fallback`` is True when a down primary forced a
        non-preferred replica to serve.
        """
        self._check(index)
        candidates = replica_shards(index, self._num_shards,
                                    self._replication)
        for position, shard in enumerate(candidates):
            if self._is_down(shard):
                continue
            store = self._shard_stores[shard]
            if store is None:  # unreachable: candidates hold the block
                continue
            return store, self._local_index[shard][index], shard, position > 0
        raise ExecutionError(
            f"all {len(candidates)} replicas of block {index} are down "
            f"(shards {candidates})")

    def _is_down(self, shard: int) -> bool:
        with self._lock:
            return shard in self._down

    def _note_read(self, index: int, shard: int, fallback: bool) -> None:
        """Charge fallback accounting and emit placement events for one
        served logical read."""
        if fallback:
            with self._lock:
                self._extra_stats.replica_fallback_reads += 1
        tracer = self._tracer
        if tracer is None or not tracer.enabled:
            return
        if fallback:
            tracer.event(
                "shard.failover", subject="store",
                args={"block": index,
                      "from": shard_id(index % self._num_shards),
                      "to": shard_id(shard)})
        tracer.event(
            "shard.read", subject="store",
            args={"shard": shard_id(shard), "block": index,
                  "fallback": fallback})

    def _check(self, index: int) -> None:
        if not 0 <= index < self._num_blocks:
            raise ExecutionError(
                f"block index {index} out of range (n={self._num_blocks})")

    def _check_shard(self, index: int) -> None:
        if not 0 <= index < self._num_shards:
            raise ExecutionError(
                f"shard index {index} out of range (n={self._num_shards})")

