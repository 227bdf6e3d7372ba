"""Runtime lock-order checking: helgrind-lite for the local runtime.

The local runtime holds three locks (``BlockStore._stats_lock``,
``BlockCache._lock``, the prefetcher's condition lock) that may nest in
future refactors.  A deadlock needs two threads taking two locks in
opposite orders — a bug that tests rarely trigger but production always
finds.  :class:`OrderedLock` makes the *potential* visible: every
acquisition while other locks are held records a directed edge
``held -> acquired`` in a process-global graph keyed by lock *name*
(instances of the same role share a name, so the graph abstracts over
object identity the way helgrind abstracts lock classes).  The first
edge that closes a cycle raises :class:`LockOrderError` immediately —
on the acquiring thread, with the full cycle in the message — even
though no actual deadlock occurred on this run.

Checking costs a global lock per acquire, so it is **off by default**
and enabled by ``REPRO_LOCKCHECK=1`` (the test suite turns it on in
``tests/conftest.py``, before any ``repro`` import).  The runtime
builds its locks with :func:`ordered_lock`: a bare, free
:class:`threading.Lock` unless a switch is on when the lock is built.

:class:`OrderedLock` also works as the backing lock of a
:class:`threading.Condition`: ``wait()`` releases and re-acquires
through the wrapper, so the held-set bookkeeping stays exact.
"""

from __future__ import annotations

import os
import threading
from typing import Iterator

__all__ = [
    "LockOrderError", "OrderedLock", "ordered_lock", "lockcheck_enabled",
    "set_lockcheck", "lock_order_graph", "reset_lock_graph",
    "set_held_tracking", "held_tracking_enabled", "held_locks",
]

#: Environment variable that turns checking on ("1" = enabled).
ENV_VAR = "REPRO_LOCKCHECK"


class LockOrderError(RuntimeError):
    """Two lock classes were acquired in inconsistent orders."""


class _State:
    """Process-global checker state (lazily resolves the env switch)."""

    def __init__(self) -> None:
        self.enabled: bool | None = None

    def resolve(self) -> bool:
        if self.enabled is None:
            self.enabled = os.environ.get(ENV_VAR, "") == "1"
        return self.enabled


_STATE = _State()


def lockcheck_enabled() -> bool:
    """Whether order checking is active (env ``REPRO_LOCKCHECK=1`` or
    :func:`set_lockcheck`)."""
    return _STATE.resolve()


def set_lockcheck(enabled: bool | None) -> None:
    """Force checking on/off; ``None`` re-reads the environment on next
    use.  Intended for tests."""
    _STATE.enabled = enabled


class _Tracking:
    """Held-set bookkeeping without order checking.

    The race checker (:mod:`repro.analysis.racecheck`) needs to know
    which locks the current thread holds even when lock-*order*
    checking is off.  It flips this switch rather than the order
    switch, so enabling ``REPRO_RACECHECK=1`` alone records held sets
    but draws no order edges and never raises
    :class:`LockOrderError`.
    """

    def __init__(self) -> None:
        self.enabled = False


_TRACKING = _Tracking()


def set_held_tracking(enabled: bool) -> None:
    """Turn per-thread held-set bookkeeping on/off independently of
    lock-order checking (used by ``repro.analysis.racecheck``)."""
    _TRACKING.enabled = enabled


def held_tracking_enabled() -> bool:
    """Whether held sets are being recorded (order checking or the race
    checker's tracking switch)."""
    return _STATE.resolve() or _TRACKING.enabled


class _LockGraph:
    """The global acquisition-order graph (edges between lock names)."""

    def __init__(self) -> None:
        self._guard = threading.Lock()  # guards _edges only; never nested
        self._edges: dict[str, set[str]] = {}
        self._held = threading.local()

    # ------------------------------------------------------------- held set
    def _held_stack(self) -> list[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    # ---------------------------------------------------------- bookkeeping
    def note_acquire(self, name: str, *, record_edges: bool = True) -> None:
        """Record edges ``held -> name``; raise on a fresh cycle.

        With ``record_edges=False`` only the per-thread held stack is
        maintained (the race checker's mode: it needs held sets, not
        order edges).
        """
        stack = self._held_stack()
        if record_edges:
            with self._guard:
                for held in stack:
                    if held == name:
                        continue
                    successors = self._edges.setdefault(held, set())
                    if name not in successors:
                        cycle = self._find_path(name, held)
                        if cycle is not None:
                            raise LockOrderError(
                                f"lock-order cycle: acquiring {name!r} while "
                                f"holding {held!r}, but the recorded order is "
                                f"{' -> '.join(cycle + [name])} "
                                f"(potential deadlock)")
                        successors.add(name)
        stack.append(name)

    def note_release(self, name: str) -> None:
        stack = self._held_stack()
        # Remove the most recent occurrence (locks release LIFO in
        # practice, but out-of-order release is legal for plain locks).
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == name:
                del stack[i]
                return

    def _find_path(self, start: str, goal: str) -> list[str] | None:
        """DFS path ``start ~> goal`` through recorded edges (caller
        holds ``_guard``)."""
        seen = {start}
        frontier: list[list[str]] = [[start]]
        while frontier:
            path = frontier.pop()
            node = path[-1]
            if node == goal:
                return path
            for nxt in self._edges.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(path + [nxt])
        return None

    # -------------------------------------------------------------- inspect
    def snapshot(self) -> dict[str, frozenset[str]]:
        with self._guard:
            return {k: frozenset(v) for k, v in self._edges.items()}

    def clear(self) -> None:
        with self._guard:
            self._edges.clear()


_GRAPH = _LockGraph()


def lock_order_graph() -> dict[str, frozenset[str]]:
    """Copy of the recorded acquisition-order edges (name -> successors)."""
    return _GRAPH.snapshot()


def reset_lock_graph() -> None:
    """Drop all recorded edges (the per-thread held sets are untouched;
    call between tests, not while locks are held)."""
    _GRAPH.clear()


class OrderedLock:
    """Drop-in :class:`threading.Lock` that records acquisition order.

    ``name`` identifies the lock's *role* — every ``BlockStore`` shares
    ``"BlockStore._stats_lock"`` — because deadlocks are a property of
    code paths, not instances.  With checking disabled (the default
    outside tests) the wrapper adds one attribute read per operation.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("OrderedLock needs a non-empty name")
        self.name = name
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            order = _STATE.resolve()
            if order or _TRACKING.enabled:
                try:
                    _GRAPH.note_acquire(self.name, record_edges=order)
                except LockOrderError:
                    self._lock.release()
                    raise
        return acquired

    def release(self) -> None:
        if _STATE.resolve() or _TRACKING.enabled:
            _GRAPH.note_release(self.name)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "locked" if self._lock.locked() else "unlocked"
        return f"<OrderedLock {self.name!r} {state}>"


def ordered_lock(name: str) -> "OrderedLock | threading.Lock":
    """The lock for the role ``name``: an :class:`OrderedLock` if order
    checking or held-set tracking (which the race checker's switch turns
    on) is on now, else a bare :class:`threading.Lock`."""
    from .racecheck import racecheck_enabled  # it imports this module
    if racecheck_enabled() or held_tracking_enabled():
        return OrderedLock(name)
    return threading.Lock()


def held_locks() -> Iterator[str]:
    """Names of locks the *calling thread* currently holds (only
    meaningful while checking is enabled)."""
    return iter(tuple(_GRAPH._held_stack()))
