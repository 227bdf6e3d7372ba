"""Job tickets, tenant accounting and Jain fairness."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service.records import (
    FairnessReport,
    JobStatus,
    JobTicket,
    TenantAccount,
    fairness_report,
    jain_index,
)


def test_terminal_statuses():
    assert not JobStatus.PENDING.terminal
    assert not JobStatus.SCANNING.terminal
    for status in (JobStatus.DONE, JobStatus.CANCELLED,
                   JobStatus.REJECTED, JobStatus.FAILED):
        assert status.terminal


def test_ticket_latency_properties():
    ticket = JobTicket(job_id="j", tenant="t", status=JobStatus.PENDING,
                       submitted_at=1.0)
    assert ticket.wait_s is None and ticket.response_s is None
    done = JobTicket(job_id="j", tenant="t", status=JobStatus.DONE,
                     submitted_at=1.0, admitted_at=1.5, finished_at=4.0)
    assert done.wait_s == pytest.approx(0.5)
    assert done.response_s == pytest.approx(3.0)


def test_jain_index_bounds():
    assert jain_index([]) == 1.0
    assert jain_index([0.0, 0.0]) == 1.0
    assert jain_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)
    # One tenant hogging everything: the 1/n floor.
    assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        jain_index([1.0, -1.0])


@given(st.lists(st.floats(min_value=0.0, allow_nan=False,
                          allow_infinity=False), min_size=1, max_size=12))
@example([0.633541589146366])  # x ** 2 > x * x: once 1.0000000000000002
@example([1e-200, 1e-200])     # squares underflow to zero
@example([1e200, 1.0])         # squares overflow
@example([5e-324])
@settings(max_examples=300)
def test_jain_index_stays_in_its_range(values):
    index = jain_index(values)
    assert 1.0 / len(values) <= index <= 1.0
    if len(values) == 1:
        assert index == 1.0  # exactly: one tenant cannot be unfair


def test_tenant_account_means():
    account = TenantAccount(tenant="t", completed=2,
                            total_wait_s=1.0, total_response_s=6.0)
    assert account.mean_wait_s == pytest.approx(0.5)
    assert account.mean_response_s == pytest.approx(3.0)
    empty = TenantAccount(tenant="e")
    assert empty.mean_wait_s == 0.0 and empty.mean_response_s == 0.0


def test_fairness_report_ordering_and_exclusions():
    a = TenantAccount(tenant="a", submitted=2, completed=2,
                      total_response_s=4.0)
    b = TenantAccount(tenant="b", submitted=2, completed=2,
                      total_response_s=4.0)
    # Submitted but completed nothing: excluded from the response index,
    # included (as zero) in the throughput index.
    c = TenantAccount(tenant="c", submitted=2)
    report = fairness_report([b, c, a])
    assert isinstance(report, FairnessReport)
    assert [acc.tenant for acc in report.accounts] == ["a", "b", "c"]
    assert report.response_fairness == pytest.approx(1.0)
    assert report.throughput_fairness == pytest.approx(jain_index([2, 2, 0]))
    table = report.format_table()
    assert "Jain fairness" in table and "a" in table
    as_dict = report.as_dict()
    assert len(as_dict["tenants"]) == 3
