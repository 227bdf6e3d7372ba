"""Lockset race detector: unit behaviour plus service fault injection."""

from __future__ import annotations

import threading
from dataclasses import dataclass

import pytest

from repro.analysis.lockgraph import OrderedLock
from repro.analysis.racecheck import (
    RaceError,
    race_checked,
    register_instance,
    reset_racecheck_state,
    set_racecheck,
)


@pytest.fixture(autouse=True)
def checking_on():
    """Force the detector on with a clean table; restore env-driven state."""
    set_racecheck(True)
    reset_racecheck_state()
    yield
    reset_racecheck_state()
    set_racecheck(None)


class Box:
    """Minimal guarded object for the unit tests."""

    def __init__(self) -> None:
        self._lock = OrderedLock("Box._lock")
        self.value = 0
        register_instance(self, fields=("value",), guard="Box._lock",
                          label="Box")


def in_thread(fn, name="second"):
    """Run ``fn`` in a fresh thread; re-raise whatever it raised."""
    error = []

    def target():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - test relay
            error.append(exc)

    thread = threading.Thread(target=target, name=name)
    thread.start()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    if error:
        raise error[0]


# ------------------------------------------------------------- unit behaviour
def test_single_thread_writes_never_race():
    box = Box()
    box.value = 1          # unlocked
    with box._lock:
        box.value = 2      # locked
    box.value = 3          # unlocked again: still the exclusive phase


def test_consistently_guarded_cross_thread_writes_are_clean():
    box = Box()
    with box._lock:
        box.value = 1

    def guarded():
        with box._lock:
            box.value = 2

    in_thread(guarded)
    with box._lock:
        box.value = 3


def test_unguarded_second_thread_write_raises():
    box = Box()
    with box._lock:
        box.value = 1
    with pytest.raises(RaceError) as excinfo:
        in_thread(lambda: setattr(box, "value", 2), name="rogue")
    message = str(excinfo.value)
    assert "Box.value" in message
    assert "expected guard: Box._lock" in message
    assert "thread 'rogue' holding []" in message
    assert "Box._lock" in message.split("last write:")[1]


def test_shared_phase_catches_later_unguarded_writer():
    box = Box()
    with box._lock:
        box.value = 1
    def guarded():
        with box._lock:
            box.value = 2

    in_thread(guarded)
    # Back on the main thread: the attribute is shared now, so even the
    # first writer may no longer touch it unlocked.
    with pytest.raises(RaceError):
        box.value = 3


def test_untracked_fields_are_not_intercepted():
    box = Box()
    box.other = 1
    in_thread(lambda: setattr(box, "other", 2))


def test_disabled_registration_is_a_no_op():
    set_racecheck(False)
    box = Box.__new__(Box)
    box._lock = OrderedLock("Box._lock")
    box.value = 0
    cls_before = type(box)
    register_instance(box, fields=("value",))
    assert type(box) is cls_before
    in_thread(lambda: setattr(box, "value", 2))  # no checking, no raise


def test_race_checked_decorator_registers_instances():
    @race_checked(fields=("n",), guard="D._lock")
    @dataclass
    class D:
        n: int = 0

    lock = OrderedLock("D._lock")
    d = D()
    with lock:
        d.n = 1
    with pytest.raises(RaceError):
        in_thread(lambda: setattr(d, "n", 2))


# -------------------------------------------------------- service fault
@pytest.fixture
def store(tmp_path):
    from repro.localrt.storage import BlockStore
    lines = [f"alpha beta gamma line {i:04d}" for i in range(160)]
    return BlockStore.create(tmp_path / "corpus", lines,
                             block_size_bytes=512)


def test_detector_fires_on_unguarded_service_mutation(store):
    """Fault injection: a second thread mutating SchedulerService state
    without the service condition variable must trip the detector.

    This is the end-to-end proof that the shipped instrumentation is
    live — if ``register_instance`` were stubbed out (or the service
    stopped registering its fields) no ``RaceError`` would be raised
    and this test would fail.
    """
    from repro.common.config import ExecutionConfig
    from repro.localrt.jobs import wordcount_job
    from repro.service.config import ServiceConfig
    from repro.service.core import SchedulerService

    service = SchedulerService(store, ServiceConfig(
        execution=ExecutionConfig(blocks_per_segment=4)))
    service.submit(wordcount_job("wc", r"alpha"), tenant="t")
    service.step()  # this thread has now written every target below

    # The lifecycle ledger's pending depth, an entry's status and a
    # tenant account are all guarded cross-object by the service's
    # condition variable.  Control: the same cross-thread mutation under
    # it is legitimate and must not raise.
    ledger = service._ledger
    targets = [(ledger, "pending", "Ledger.pending"),
               (ledger.accounts["t"], "submitted", "TenantAccount.submitted"),
               (service, "_iteration", "SchedulerService._iteration")]
    for obj, field, label in targets:
        def bump(obj=obj, field=field, by=1):
            setattr(obj, field, getattr(obj, field) + by)

        def guarded(bump=bump, by=1):
            with service._cond:
                bump(by=by)
        in_thread(guarded)

        with pytest.raises(RaceError) as excinfo:
            in_thread(bump, name="rogue")
        message = str(excinfo.value)
        assert label in message
        assert "expected guard: SchedulerService._cond" in message

        # Undo the two injected increments so the service can still drain.
        in_thread(lambda guarded=guarded: guarded(by=-2))
    while service.step():
        pass


def test_detector_covers_the_token_dictionary(monkeypatch):
    """A store handle's token dictionary is shared by every runner on
    the handle: the table's roll-over (the one rebind of its dictionary)
    and the dictionary's idle clock are registered, so swapping the
    dictionary or ticking the clock outside the table's lock trips the
    detector while roll-overs from any thread do not."""
    from collections import Counter

    import repro.localrt.tokens as tokens

    monkeypatch.setattr(tokens, "TOKEN_DICTIONARY_CAP", 2)
    views = tokens.DerivedViews()
    views.encode(Counter(["a", "b"]))
    # The first roll-over is this thread's on purpose: a finished
    # thread's ident can be reused, which the detector would read as
    # one thread writing throughout.
    views.encode(Counter(["c"]))                          # rolls over
    in_thread(lambda: views.encode(Counter(["d", "e"])))  # and again
    assert len(views._dictionary.words) == 2
    dictionary = views._dictionary
    views.encode(Counter(["d"]))  # ticks its clock, from this thread

    with pytest.raises(RaceError) as excinfo:
        def unguarded():
            views._dictionary = tokens.TokenDictionary(views._lock)
        in_thread(unguarded, name="rogue")
    assert "DerivedViews._dictionary" in str(excinfo.value)
    assert "expected guard: DerivedViews._lock" in str(excinfo.value)

    with pytest.raises(RaceError) as excinfo:
        def unguarded_tick():
            dictionary.blocks += 1
        in_thread(unguarded_tick, name="rogue")
    assert "TokenDictionary.blocks" in str(excinfo.value)
    assert "expected guard: DerivedViews._lock" in str(excinfo.value)


def test_detector_covers_the_store_counters(store):
    """A store handle's read counters are registered: two threads
    reading one handle (a disk read and a view-served visit each) pass,
    while a counter write outside the counter lock trips the detector."""
    store.read_block_bytes(0)
    store.visit_block(1)
    in_thread(lambda: (store.read_block_bytes(1), store.visit_block(0)))
    stats = store.stats_snapshot()
    assert (stats.blocks_read, stats.physical_blocks_read,
            stats.view_blocks_read) == (4, 2, 2)

    with pytest.raises(RaceError) as excinfo:
        def unguarded():
            store.stats.blocks_read += 1
        in_thread(unguarded, name="rogue")
    assert "BlockStore.stats.blocks_read" in str(excinfo.value)
    assert "expected guard: BlockStore._stats_lock" in str(excinfo.value)


def test_detector_covers_the_token_dictionary_codes():
    """A dictionary's reduce codes are replaced, never written, and only
    under its table's lock: deriving them from two threads passes,
    while a rebind outside the lock trips the detector."""
    from collections import Counter

    import numpy as np

    import repro.localrt.tokens as tokens

    views = tokens.DerivedViews()
    dictionary = views.encode(Counter(["b", "a"])).dictionary
    dictionary.codes(1)
    views.encode(Counter(["c"]))
    in_thread(lambda: dictionary.codes(2))
    assert dictionary.rank.tolist() == [1, 0, 2]

    with pytest.raises(RaceError) as excinfo:
        def unguarded():
            dictionary.rank = np.zeros(3, np.int64)
        in_thread(unguarded, name="rogue")
    assert "TokenDictionary.rank" in str(excinfo.value)
    assert "expected guard: DerivedViews._lock" in str(excinfo.value)
