"""Bounded in-memory block cache for the shared-scan I/O path.

S3's thesis is that the scan is the scarce resource; the local runtime
makes the same point in bytes by charging every ``read_block_bytes`` to
the store's counters.  A :class:`BlockCache` splits that accounting in
two: *logical* reads (what scan-sharing measures — one per
``read_block_bytes`` call, cache or no cache) stay exactly as before,
while *physical* reads (actual trips to disk) shrink to the miss path.
The cache is a plain LRU bounded **by bytes**, because blocks are the
unit of I/O and their sizes differ (the last block of a file is short).
It keeps no counters: the store books every hit, miss and eviction in
its one :class:`~repro.localrt.storage.ReadStats`, next to the read
it describes.

Thread safety: one lock guards the eviction list and the byte budget.
``read_block_bytes`` may run concurrently from two runners sharing a
store and from the read-ahead prefetcher
(:mod:`repro.localrt.prefetch`), so every public method takes the
lock.  The cache does not know who is loading what: the store keeps
one fill per block in flight, so racing loaders of one block read it
from disk once (``BlockStore._claim``).
"""

from __future__ import annotations

from collections import OrderedDict

from ..analysis.lockgraph import ordered_lock
from ..common.errors import ExecutionError


class BlockCache:
    """A thread-safe LRU cache of raw block bytes, bounded by total bytes.

    Keys are block indices; values are the blocks' undecoded on-disk
    bytes, exactly what ``read_block_bytes`` returns.  The byte charge
    of an entry is the block's *on-disk* size — for raw bytes that is
    exactly ``len(data)``, so the budget matches the file sizes users
    reason about, with no Python object overhead counted.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ExecutionError(
                f"cache capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._lock = ordered_lock("BlockCache._lock")
        #: index -> (data, nbytes), in LRU order (oldest first).
        self._entries: "OrderedDict[int, tuple[bytes, int]]" = \
            OrderedDict()  # guarded-by: _lock
        self._current_bytes = 0  # guarded-by: _lock

    # ---------------------------------------------------------------- lookup
    def get(self, index: int) -> bytes | None:
        """Return the cached bytes for ``index`` (refreshing its recency),
        or ``None`` on a miss."""
        with self._lock:
            entry = self._entries.get(index)
            if entry is None:
                return None
            self._entries.move_to_end(index)
            return entry[0]

    def contains(self, index: int) -> bool:
        """Membership test without touching recency."""
        with self._lock:
            return index in self._entries

    def __contains__(self, index: int) -> bool:
        return self.contains(index)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def current_bytes(self) -> int:
        """Bytes currently resident."""
        with self._lock:
            return self._current_bytes

    # ---------------------------------------------------------------- insert
    def put(self, index: int, data: bytes, nbytes: int) -> int:
        """Insert (or refresh) ``index``; returns how many entries were
        evicted to make room.

        A block larger than the whole capacity is not cached (evicting
        everything for one uncacheable block would thrash).
        """
        if nbytes < 0:
            raise ExecutionError(f"block byte size must be >= 0, got {nbytes}")
        with self._lock:
            if nbytes > self.capacity_bytes:
                return 0
            old = self._entries.pop(index, None)
            if old is not None:
                self._current_bytes -= old[1]
            evicted = 0
            while self._current_bytes + nbytes > self.capacity_bytes:
                _, (_, old_bytes) = self._entries.popitem(last=False)
                self._current_bytes -= old_bytes
                evicted += 1
            self._entries[index] = (data, nbytes)
            self._current_bytes += nbytes
            return evicted
