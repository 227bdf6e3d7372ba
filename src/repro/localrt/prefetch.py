"""Read-ahead prefetching for the shared-scan I/O path.

The paper's partial-job initialization pipelines "prepare the next
sub-job while the current one runs" (Section IV); the local-runtime
analogue is warming segment *i+1*'s blocks into the block cache while
segment *i*'s map tasks execute.  A single background thread performs
the warming, so mapper CPU and block I/O overlap although the map
wave itself runs in the calling thread.

Pacing: the prefetcher never runs more than ``depth`` blocks ahead of
the demand reads (measured against the store's logical ``blocks_read``
counter).  That is the "capped in-flight depth" — with a bounded cache
an unpaced prefetcher would evict the very blocks the current wave still
needs.  Scheduling is advisory: a prefetch failure is recorded, never
raised, because the demand read will surface the real error with full
context; the prefetcher simply stops warming after the first failure.

Shutdown is cooperative and idempotent: ``close()`` (also called by the
runners' ``finally`` blocks when a mapper raises mid-wave) sets the stop
event, wakes the worker and joins it, so no thread outlives the run.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterable

from ..analysis.lockgraph import ordered_lock
from ..analysis.racecheck import register_instance
from ..common.errors import ExecutionError
from ..obs.tracer import NULL_TRACER, Tracer
from .api import BlockStoreProtocol

#: Worker poll interval while waiting for the demand scan to catch up.
_POLL_SECONDS = 0.002

#: How long ``close()`` waits for the worker before declaring a leak.
_JOIN_TIMEOUT_SECONDS = 10.0


class ReadAheadPrefetcher:
    """Background warmer that loads scheduled blocks into the store's cache.

    Parameters
    ----------
    store:
        The block store to warm; must have a cache attached.
    depth:
        Maximum number of blocks the worker may process ahead of the
        demand reads (>= 1).
    tracer:
        Optional span/event sink; when enabled, the worker records one
        ``prefetch.block`` event per warmed block with its pacing
        headroom (how far ahead of the demand reads it ran).
    """

    def __init__(self, store: BlockStoreProtocol, *, depth: int = 2,
                 tracer: Tracer | None = None) -> None:
        if depth < 1:
            raise ExecutionError(f"prefetch depth must be >= 1, got {depth}")
        if not store.has_cache:
            raise ExecutionError(
                "read-ahead prefetching requires a BlockCache attached to "
                "the store (see BlockStore.ensure_cache)")
        self._store = store
        self.depth = depth
        self._tracer = tracer if tracer is not None else NULL_TRACER
        #: Condition over an ordered lock, so waits/notifies participate
        #: in lock-order checking when it is on (REPRO_LOCKCHECK=1).
        self._cond = threading.Condition(
            ordered_lock("ReadAheadPrefetcher._cond"))  # type: ignore[arg-type]
        self._pending: "deque[int]" = deque()  # guarded-by: _cond
        self._stop = threading.Event()
        self._closed = False  # guarded-by: _cond
        #: Blocks warmed by the worker (pacing position).
        self._processed = 0  # guarded-by: _cond
        #: Demand-read position when this prefetcher started (read-only
        #: after construction).
        self._baseline = store.logical_blocks_read()
        #: First warming failure, kept for inspection (never raised here).
        self.error: BaseException | None = None  # guarded-by: _cond
        register_instance(
            self, fields=("_processed", "_closed", "error"),
            guard="ReadAheadPrefetcher._cond", label="ReadAheadPrefetcher")
        self._thread = threading.Thread(
            target=self._run, name="s3-prefetch", daemon=True)
        self._thread.start()

    # -------------------------------------------------------------- schedule
    def schedule(self, indices: Iterable[int]) -> int:
        """Queue block indices for warming; returns how many were queued.

        Duplicates of already-queued indices are dropped (the worker also
        skips blocks already resident in the cache).
        """
        with self._cond:
            if self._closed:
                raise ExecutionError("cannot schedule on a closed prefetcher")
            queued = 0
            present = set(self._pending)
            for index in indices:
                if index in present:
                    continue
                self._pending.append(index)
                present.add(index)
                queued += 1
            if queued:
                self._cond.notify()
            return queued

    @property
    def scheduled_ever(self) -> int:
        """Total indices accepted by :meth:`schedule` so far."""
        with self._cond:
            return self._processed + len(self._pending)

    # ---------------------------------------------------------------- worker
    def _run(self) -> None:
        # Worker-local mirror of _processed: only this thread advances
        # the pacing position, so it can read its own copy lock-free and
        # publish under _cond for scheduled_ever.
        processed = 0
        while True:
            with self._cond:
                while not self._pending and not self._stop.is_set():
                    self._cond.wait()
                if self._stop.is_set():
                    return
                index = self._pending.popleft()
            if not self._wait_for_window(processed):
                return
            try:
                self._store.prefetch_block(index)
            except BaseException as exc:  # advisory: record, stop warming
                with self._cond:
                    self.error = exc
                return
            processed += 1
            if self._tracer.enabled:
                demand = self._store.logical_blocks_read() - self._baseline
                self._tracer.event("prefetch.block", subject=f"block_{index}",
                                   ahead=processed - demand)
            with self._cond:
                self._processed = processed

    def _wait_for_window(self, processed: int) -> bool:
        """Block until the worker is within ``depth`` of the demand reads.

        Returns False when stopped while waiting.
        """
        while not self._stop.is_set():
            demand = self._store.logical_blocks_read() - self._baseline
            if processed - demand < self.depth:
                return True
            self._stop.wait(_POLL_SECONDS)
        return False

    # --------------------------------------------------------------- teardown
    def close(self) -> None:
        """Stop the worker and join it (idempotent; drops pending work)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._stop.set()
            self._cond.notify_all()
        self._thread.join(timeout=_JOIN_TIMEOUT_SECONDS)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise ExecutionError("prefetch worker failed to stop")

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def __enter__(self) -> "ReadAheadPrefetcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
