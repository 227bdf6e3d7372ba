"""OrderedLock: acquisition-order recording and cycle detection."""

from __future__ import annotations

import threading

import pytest

from repro.analysis.lockgraph import (
    LockOrderError,
    OrderedLock,
    held_locks,
    lock_order_graph,
    lockcheck_enabled,
    ordered_lock,
    reset_lock_graph,
    set_held_tracking,
    set_lockcheck,
)


@pytest.fixture(autouse=True)
def checking_on():
    """Force checking on with a clean graph; restore env-driven state."""
    set_lockcheck(True)
    reset_lock_graph()
    yield
    reset_lock_graph()
    set_lockcheck(None)


def test_consistent_order_is_fine():
    a, b = OrderedLock("t1.A"), OrderedLock("t1.B")
    for _ in range(3):
        with a:
            with b:
                pass
    graph = lock_order_graph()
    assert "t1.B" in graph["t1.A"]


def test_ab_ba_cycle_is_detected():
    a, b = OrderedLock("t2.A"), OrderedLock("t2.B")
    with a:
        with b:
            pass
    with pytest.raises(LockOrderError, match="t2.A"):
        with b:
            with a:
                pass


def test_cycle_detection_releases_the_inner_lock():
    a, b = OrderedLock("t3.A"), OrderedLock("t3.B")
    with a, b:
        pass
    with b:
        with pytest.raises(LockOrderError):
            a.acquire()
    # The failed acquire must not leave ``a`` locked.
    assert not a.locked()
    assert not b.locked()


def test_three_lock_cycle_is_detected():
    a, b, c = (OrderedLock(f"t4.{n}") for n in "ABC")
    with a, b:
        pass
    with b, c:
        pass
    with pytest.raises(LockOrderError, match="potential deadlock"):
        with c, a:
            pass


def test_same_name_reentrancy_records_no_self_edge():
    """Two instances sharing a role name: no self-edge, no false cycle."""
    s1, s2 = OrderedLock("t5.S"), OrderedLock("t5.S")
    with s1:
        with s2:
            pass
    assert "t5.S" not in lock_order_graph().get("t5.S", frozenset())


def test_disabled_checking_records_nothing():
    set_lockcheck(False)
    a, b = OrderedLock("t6.A"), OrderedLock("t6.B")
    with a, b:
        pass
    with b, a:  # would cycle if checking were on
        pass
    assert "t6.A" not in lock_order_graph()


def test_env_gate(monkeypatch):
    set_lockcheck(None)  # defer to environment
    monkeypatch.setenv("REPRO_LOCKCHECK", "1")
    assert lockcheck_enabled() is True
    set_lockcheck(None)
    monkeypatch.setenv("REPRO_LOCKCHECK", "0")
    assert lockcheck_enabled() is False


def test_nonblocking_acquire_contract():
    lock = OrderedLock("t7.A")
    assert lock.acquire(blocking=False) is True
    assert lock.locked()
    lock.release()

    holder = OrderedLock("t7.B")
    holder.acquire()
    grabbed = []
    thread = threading.Thread(
        target=lambda: grabbed.append(holder.acquire(blocking=False)))
    thread.start()
    thread.join()
    assert grabbed == [False]
    holder.release()


def test_condition_wait_keeps_bookkeeping_exact():
    """Condition.wait releases/reacquires through the wrapper, so a
    cross-thread notify works and no stale held-state accumulates."""
    cond = threading.Condition(OrderedLock("t8.cond"))
    outer = OrderedLock("t8.outer")
    ready = []

    def waiter():
        with cond:
            while not ready:
                cond.wait(timeout=5.0)

    thread = threading.Thread(target=waiter)
    thread.start()
    with cond:
        ready.append(True)
        cond.notify()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    # After the dance, taking an unrelated lock must not see phantom
    # held locks from the condition.
    with outer:
        pass
    assert "t8.cond" not in lock_order_graph().get("t8.outer", frozenset())


def test_runtime_locks_record_expected_graph(tmp_path):
    """The retrofitted BlockStore/BlockCache/prefetcher hold no two
    project locks at once: a full cached+prefetched run records no
    edges between the runtime lock roles, and none at all out of the
    store's in-flight table lock (a leaf)."""
    from repro.localrt.cache import BlockCache
    from repro.localrt.prefetch import ReadAheadPrefetcher
    from repro.localrt.storage import BlockStore

    store = BlockStore.create(
        tmp_path / "blocks", (f"line {i}" for i in range(64)),
        block_size_bytes=64, cache=BlockCache(1 << 16))
    with ReadAheadPrefetcher(store, depth=4) as prefetcher:
        prefetcher.schedule(range(store.num_blocks))
        for index in range(store.num_blocks):
            store.read_block_bytes(index)
    runtime_roles = {"BlockStore._stats_lock", "BlockCache._lock",
                     "ReadAheadPrefetcher._cond", "BlockStore._inflight_lock"}
    for source, targets in lock_order_graph().items():
        if source in runtime_roles:
            assert not (targets & runtime_roles), (
                f"unexpected lock nesting {source} -> {targets}")
    assert not lock_order_graph().get("BlockStore._inflight_lock")


# ------------------------------------------------- held-set bookkeeping
def test_held_locks_exact_across_condition_wait():
    """held_locks() must drop the condition's lock *while* wait() has
    released it and show it again after re-acquisition."""
    from repro.analysis.lockgraph import held_locks

    cond = threading.Condition(OrderedLock("t9.cond"))
    during_wait = []
    after_wait = []
    woken = []

    def waiter():
        with cond:
            while not woken:
                cond.wait(timeout=5.0)
            after_wait.append(tuple(held_locks()))

    thread = threading.Thread(target=waiter)
    thread.start()
    with cond:
        # The waiter is (or soon will be) inside wait(); this thread
        # holding the lock proves the waiter released it through the
        # wrapper, so the waiter's held set excludes it right now.
        during_wait.append(tuple(held_locks()))
        woken.append(True)
        cond.notify()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert during_wait == [("t9.cond",)]
    assert after_wait == [("t9.cond",)]
    assert tuple(held_locks()) == ()


def test_same_name_reentrant_acquisition_balances_held_stack():
    """Two instances sharing a role name: the held stack counts both
    and releases unwind one at a time."""
    from repro.analysis.lockgraph import held_locks

    a1, a2 = OrderedLock("t10.A"), OrderedLock("t10.A")
    a1.acquire()
    a2.acquire()
    assert tuple(held_locks()) == ("t10.A", "t10.A")
    a2.release()
    assert tuple(held_locks()) == ("t10.A",)
    a1.release()
    assert tuple(held_locks()) == ()


def test_reset_clears_edges_but_not_held_sets():
    """reset_lock_graph drops recorded order edges only; a lock held
    across the reset is still in the thread's held set (so a test-scoped
    reset cannot corrupt live bookkeeping)."""
    from repro.analysis.lockgraph import held_locks

    outer, inner = OrderedLock("t11.A"), OrderedLock("t11.B")
    with outer:
        with inner:
            pass
        assert "t11.B" in lock_order_graph().get("t11.A", frozenset())
        reset_lock_graph()
        assert lock_order_graph() == {}
        assert tuple(held_locks()) == ("t11.A",)
        # Bookkeeping still works: the same nesting is re-recorded.
        with inner:
            pass
        assert "t11.B" in lock_order_graph().get("t11.A", frozenset())
    assert tuple(held_locks()) == ()


def test_tracking_only_mode_records_no_edges_and_never_raises():
    """The race checker's switch: held sets are maintained, but no order
    edges are drawn and inconsistent orders pass silently."""
    from repro.analysis.lockgraph import held_locks, set_held_tracking

    set_lockcheck(False)
    set_held_tracking(True)
    try:
        a, b = OrderedLock("t12.A"), OrderedLock("t12.B")
        with a:
            with b:
                assert tuple(held_locks()) == ("t12.A", "t12.B")
        with b:
            with a:  # opposite order: LockOrderError if checking were on
                pass
        assert lock_order_graph() == {}
    finally:
        # Leave tracking on when the run's race checker needs it.
        from repro.analysis.racecheck import racecheck_enabled
        set_held_tracking(racecheck_enabled())
        set_lockcheck(True)


def test_ordered_lock_decides_when_built():
    """Checked while order checking or held tracking is on at build
    time; a bare lock otherwise, which stays bare once checking is on."""
    from repro.analysis.racecheck import racecheck_enabled

    checked = ordered_lock("t13.A")
    assert isinstance(checked, OrderedLock) and checked.name == "t13.A"
    set_lockcheck(False)
    set_held_tracking(True)
    try:
        assert isinstance(ordered_lock("t13.B"), OrderedLock)
        set_held_tracking(False)
        if not racecheck_enabled():
            bare = ordered_lock("t13.C")
            assert type(bare) is type(threading.Lock())
            set_lockcheck(True)
            with bare:  # checking on now, but this lock was built bare
                assert "t13.C" not in tuple(held_locks())
    finally:
        set_held_tracking(racecheck_enabled())
        set_lockcheck(True)
    with checked, threading.Condition(ordered_lock("t13.D")):
        assert tuple(held_locks()) == ("t13.A", "t13.D")
