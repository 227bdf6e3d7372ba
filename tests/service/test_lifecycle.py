"""The lifecycle ledger: every key of the transition table walked through
the public API, every other pair refused, and the books balanced after
each move (``assert_books_balance`` also runs as the teardown of every
scenario in this directory, see ``conftest.py``).
"""

import itertools

import pytest

from repro.common.errors import AdmissionRejected, ServiceError
from repro.localrt.api import LocalJob, Mapper
from repro.localrt.jobs import SumReducer, wordcount_job
from repro.service import __main__ as cli
from repro.service.lifecycle import TRANSITIONS, Entry, Ledger
from repro.service.records import JobStatus

from .conftest import assert_books_balance
from .test_core import traced_service as traced

S = JobStatus


def wc(job_id):
    return wordcount_job(job_id, r"alpha")


class ExplodingMapper(Mapper):
    def map(self, key, value):
        raise RuntimeError("mapper exploded")
        yield  # pragma: no cover - makes this a generator


def boom(job_id):
    return LocalJob(job_id=job_id, mapper=ExplodingMapper(),
                    reducer=SumReducer())


def statuses(service):
    return {ticket.job_id: ticket.status for ticket in service.jobs()}


def trace_count(service, name):
    return sum(event.name == name for event in service.tracer.events())


@pytest.fixture
def walked(monkeypatch):
    """The ``(from, to)`` keys the scenario moved jobs along; the books
    are audited after every single move."""
    seen = []
    transition = Ledger.transition

    def spying(self, entry, to, **kwargs):
        origin = entry.status if entry is not None else None
        transition(self, entry, to, **kwargs)
        seen.append((origin, to))

    monkeypatch.setattr(Ledger, "transition", spying)
    return seen


# --------------------------------------------------- the table, key by key

def test_every_table_key_is_walked_through_the_public_api(store, walked):
    service = traced(store, max_pending=2, max_jobs_per_iteration=2)

    def moved(*keys):
        assert walked[-len(keys):] == list(keys)
        assert_books_balance(service)

    service.submit(wc("a"), tenant="t")                       # accept
    moved((None, S.PENDING))
    service.submit(wc("b"), tenant="u")
    with pytest.raises(AdmissionRejected):                # reject at submit
        service.submit(wc("c"), tenant="t")
    moved((None, S.REJECTED))
    service.submit_at_iteration(wc("d"), 0, tenant="u")
    assert walked.count((None, S.REJECTED)) == 1          # nothing booked yet
    service.step()              # "d" rejected at release; "a", "b" admitted
    moved((None, S.REJECTED), (S.PENDING, S.SCANNING), (S.PENDING, S.SCANNING))
    held = service.submit(wc("held"), tenant="t")   # the cap keeps it pending
    assert service.cancel(held) is True                       # cancel pending
    moved((S.PENDING, S.CANCELLED))
    assert service.cancel("b") is True                        # cancel scanning
    moved((S.SCANNING, S.CANCELLED))
    while statuses(service)["a"] is not S.DONE:               # complete
        service.step()
    moved((S.SCANNING, S.DONE))
    service.submit(wc("e"), tenant="t")
    service.submit(wc("f"), tenant="u")
    service.step()                                  # "e", "f" scanning
    service.submit(wc("g"), tenant="u")             # held pending by the cap
    service.submit_at_iteration(wc("late"), 99, tenant="v")
    service.shutdown()          # abort scanning + pending, reject at shutdown
    moved((S.SCANNING, S.CANCELLED), (S.SCANNING, S.CANCELLED),
          (S.PENDING, S.CANCELLED), (None, S.REJECTED))
    assert set(walked) == set(TRANSITIONS)
    assert statuses(service) == {
        "a": S.DONE, "b": S.CANCELLED, "held": S.CANCELLED,
        "e": S.CANCELLED, "f": S.CANCELLED, "g": S.CANCELLED}
    assert service.status("e").error == service.status("g").error \
        == "service shut down before completion"
    assert service.status("b").error == "cancelled by client"


def _entry_in(service, status, job_id):
    """An entry of ``service`` in ``status`` — through the public API for
    every state an entry can really be in, hand-built for the two that
    no move leads to (``REJECTED`` creates no entry; nothing fails a
    single job yet)."""
    if status in (S.REJECTED, S.FAILED):
        return Entry(job=wc(job_id), tenant="t", scan_state=None,
                     status=status, submitted_at=0.0)
    service.submit(wc(job_id), tenant="t")
    if status is S.CANCELLED:
        service.cancel(job_id)
    elif status is S.SCANNING:
        service.step()
    elif status is S.DONE:
        while service.step():
            pass
    entry = service._ledger.entries[job_id]
    assert entry.status is status
    return entry


ILLEGAL = [pair for pair in itertools.product([None, *S], S)
           if pair not in TRANSITIONS]


@pytest.mark.parametrize(
    "origin, to", ILLEGAL,
    ids=[f"{a.value if a else 'door'}->{b.value}" for a, b in ILLEGAL])
def test_every_pair_not_in_the_table_raises(store, origin, to):
    service = traced(store)
    entry = None if origin is None else _entry_in(service, origin, "j")
    before = (service.accounts(), statuses(service),
              len(service.tracer.events()))
    with service._cond, pytest.raises(ServiceError, match="illegal"):
        service._ledger.transition(entry, to, now=1.0, job=wc("x"),
                                   tenant="t")
    assert entry is None or entry.status is origin
    assert (service.accounts(), statuses(service),
            len(service.tracer.events())) == before


def test_terminal_states_have_no_way_out():
    assert len(ILLEGAL) + len(TRANSITIONS) == 7 * 6
    assert not [key for key in TRANSITIONS
                if key[0] is not None and key[0].terminal]


def test_accepting_an_id_twice_is_not_a_move(store):
    service = traced(store)
    service.submit(wc("a"), tenant="t")
    entry = service._ledger.entries["a"]
    with service._cond, pytest.raises(ServiceError, match="past the door"):
        service._ledger.transition(None, S.PENDING, now=1.0, job=wc("a"),
                                   tenant="u", scan_state=entry.scan_state)
    assert set(service.accounts()) == {"t"}


# ------------------------------------ the four probes of the parent commit

def test_submitted_and_cancelled_mean_the_same_in_every_book(store):
    """Two accepted, one rejected at submit, one rejected at shutdown:
    the parent read submitted 4 / 2 / 2 and cancelled 2 / 2 / 0 across
    account, telemetry and counter-or-trace."""
    service = traced(store, max_pending=2)
    service.submit(wc("a"), tenant="t")
    service.submit(wc("b"), tenant="t")
    with pytest.raises(AdmissionRejected):
        service.submit(wc("c"), tenant="t")
    service.submit_at_iteration(wc("late"), 50, tenant="t")
    service.shutdown()
    account = service.accounts()["t"]
    edges = service.snapshot()["telemetry"]["edges"]
    assert account.submitted == edges["submitted"]["total"] == 4
    assert (trace_count(service, "service.submit")
            + trace_count(service, "service.reject")) == 4
    assert account.cancelled == edges["cancelled"]["total"] == 2
    assert trace_count(service, "service.cancel") == 2
    assert_books_balance(service)


def test_scheduling_a_used_id_is_refused_and_books_nothing(store):
    service = traced(store)
    service.submit(wc("a"), tenant="t")
    service.submit_at_iteration(wc("s"), 3, tenant="t")
    for taken in ("a", "s"):
        with pytest.raises(ServiceError, match="duplicate"):
            service.submit_at_iteration(wc(taken), 5, tenant="u")
    assert set(service.accounts()) == {"t"}
    assert service.accounts()["t"].submitted == 1


def collide_at_release(service):
    """"x" is scheduled, then taken by a direct submit: the collision
    only shows when iteration 1 releases it, next to "y" and "z"."""
    service.submit_at_iteration(wc("x"), 1, tenant="t")
    service.submit_at_iteration(wc("y"), 1, tenant="u")
    service.submit_at_iteration(wc("z"), 1, tenant="v")
    service.submit(wc("x"), tenant="w")


def assert_collision_cost_one_rejection(service):
    assert service.readiness()["core_alive"] is True
    assert statuses(service) == {"x": S.DONE, "y": S.DONE, "z": S.DONE}
    accounts = service.accounts()
    assert service.status("x").tenant == "w"
    assert accounts["t"].submitted == accounts["t"].rejected == 1
    assert sum(account.rejected for account in accounts.values()) == 1
    rejects = [event for event in service.tracer.events()
               if event.name == "service.reject"]
    assert [event.args["reason"] for event in rejects] == ["duplicate job id"]


def test_duplicate_at_release_is_one_rejection_in_step_mode(store):
    service = traced(store)
    collide_at_release(service)
    while service.step():
        pass
    assert_collision_cost_one_rejection(service)


def test_duplicate_at_release_does_not_kill_the_threaded_core(store):
    service = traced(store)
    collide_at_release(service)
    with service:
        service.drain(timeout=60.0)
        assert_collision_cost_one_rejection(service)


def assert_core_failure_left_nothing_stranded(service):
    assert statuses(service) == {"ok": S.CANCELLED, "boom": S.CANCELLED}
    assert "mapper exploded" in service.status("ok").error
    assert service.readiness()["core_alive"] is False
    assert service._scan.has_work() is False
    assert service.accounts()["late"].rejected == 1
    with pytest.raises(ServiceError, match="core failed"):
        service.submit(wc("more"))
    assert_books_balance(service)


def test_step_fails_the_way_the_core_thread_does(store):
    service = traced(store)
    service.submit(wc("ok"), tenant="t")
    service.submit(boom("boom"), tenant="u")
    service.submit_at_iteration(wc("never"), 50, tenant="late")
    with pytest.raises(RuntimeError, match="mapper exploded"):
        service.step()
    assert_core_failure_left_nothing_stranded(service)
    with pytest.raises(ServiceError, match="core failed"):
        service.step()


def test_threaded_core_failure_takes_the_same_path(store):
    service = traced(store)
    service.submit(wc("ok"), tenant="t")
    service.submit(boom("boom"), tenant="u")
    service.submit_at_iteration(wc("never"), 50, tenant="late")
    with service:
        assert service.wait_for("ok", timeout=60.0).status is S.CANCELLED
        assert_core_failure_left_nothing_stranded(service)


# ------------------------------------------------------------------- the CLI

ARGV = ["--jobs", "3", "--tenants", "2", "--time-scale", "0.001",
        "--corpus-bytes", "20000", "--block-size", "4000", "--max-pending",
        "1", "--max-jobs", "1"]


def test_cli_exits_zero_on_balanced_books(capsys):
    assert cli.main(ARGV) == 0
    assert "books do not balance" not in capsys.readouterr().err


def test_cli_exits_nonzero_when_the_books_do_not_balance(monkeypatch, capsys):
    """The same check as the test helper, fed a driver report that lost
    one rejection."""
    run = cli.OpenLoopDriver.run

    def forgetful(self):
        report = run(self)
        report.submitted.pop()
        return report

    monkeypatch.setattr(cli.OpenLoopDriver, "run", forgetful)
    assert cli.main(ARGV) == 1
    assert "books do not balance: driver accepted" in capsys.readouterr().err
