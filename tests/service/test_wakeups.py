"""Waiters wake on the move they wait for, not on the idle poll.

The core wakes the service's waiters only when a wave changed what a
waiter's predicate reads — a terminal status, pending capacity or the
scheduled arrivals — so a wake-up it forgot would hide behind the
``idle_poll_s`` timeout.  With the poll at 30 s, each wait below must
return well under a second.  The last test pins how many times a warm
wave takes the service's lock.
"""

import threading
import time

from repro.localrt.api import LocalJob, Mapper
from repro.localrt.jobs import SumReducer, wordcount_job
from repro.service.records import JobStatus

from .test_core import make_service, run_to_completion

#: Far longer than any wait below may take.
IDLE_POLL_S = 30.0

#: What "well under a second" allows.
PROMPT_S = 1.0


def wc(job_id):
    return wordcount_job(job_id, r"alpha")


class GatedMapper(Mapper):
    """Emits nothing; each record waits until its gate opens: ``first``
    before byte offset ``boundary``, ``rest`` from there on."""

    def __init__(self, first, rest, boundary):
        self.first, self.rest, self.boundary = first, rest, boundary

    def map(self, key, value):
        (self.first if key < self.boundary else self.rest).wait(10.0)
        return iter(())


def until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


def test_wait_for_wakes_on_completion(store):
    service = make_service(store, idle_poll_s=IDLE_POLL_S).start()
    started = time.monotonic()
    job_id = service.submit(wc("solo"))
    ticket = service.wait_for(job_id, timeout=10.0)
    assert ticket.status is JobStatus.DONE
    assert time.monotonic() - started < PROMPT_S


def test_drain_wakes_on_scheduled_arrivals_and_completions(store):
    service = make_service(store, idle_poll_s=IDLE_POLL_S).start()
    started = time.monotonic()
    service.submit_at_iteration(wc("first"), 0)
    service.submit_at_iteration(wc("later"), 6)
    service.submit(wc("direct"))
    tickets = service.drain(timeout=10.0)
    assert time.monotonic() - started < PROMPT_S
    assert {ticket.job_id: ticket.status for ticket in tickets} == {
        "first": JobStatus.DONE, "later": JobStatus.DONE,
        "direct": JobStatus.DONE}


def test_a_blocked_submit_wakes_on_the_admission_that_frees_room(store):
    first, rest = threading.Event(), threading.Event()
    service = make_service(store, idle_poll_s=IDLE_POLL_S, max_pending=1,
                           overload_policy="block", block_timeout_s=10.0)
    service.start()
    # "held" rides the first wave (blocks 0-3), which waits for `first`.
    service.submit(LocalJob(job_id="held", mapper=GatedMapper(
        first, rest, store.block_offset(4)), reducer=SumReducer()))
    until(lambda: service.status("held").status is JobStatus.SCANNING)
    service.submit(wc("queued"))  # pending while the wave runs: full
    accepted = []
    blocked = threading.Thread(
        target=lambda: accepted.append(service.submit(wc("blocked"))))
    blocked.start()
    blocked.join(0.2)
    assert blocked.is_alive() and not accepted  # waiting for room
    # The next wave admits "queued" and then waits for `rest`, so no job
    # finishes: only the admission can wake the blocked submit.
    released = time.monotonic()
    first.set()
    blocked.join(10.0)
    assert accepted == ["blocked"]
    assert time.monotonic() - released < PROMPT_S
    assert service.status("held").status is JobStatus.SCANNING
    rest.set()
    service.drain(timeout=10.0)


class CountingLock:
    """A lock that counts its acquisitions, blocking or not (a
    condition's ``notify_all`` probes its lock with one)."""

    def __init__(self, lock):
        self._lock = lock
        self.acquired = 0

    def acquire(self, blocking=True, timeout=-1):
        self.acquired += 1
        return self._lock.acquire(blocking, timeout)

    def release(self):
        self._lock.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc_info):
        self.release()


def test_a_warm_wave_takes_the_lock_twice(store):
    """Plan, then book: a warm wave that admits and finishes no job
    takes the service's lock twice and wakes no waiter."""
    service = make_service(store)
    service.submit(wc("warm"))  # fills the derived views
    run_to_completion(service)
    service.submit(wc("rider"))
    service.step()  # admits "rider"
    lock = CountingLock(service._cond._lock)
    service._cond = threading.Condition(lock)
    service.step()
    assert lock.acquired == 2
    run_to_completion(service)
    assert service.status("rider").status is JobStatus.DONE
