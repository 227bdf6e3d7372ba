"""Shared fixtures for the scheduler-service tests."""

import pytest

from repro.localrt.storage import BlockStore
from repro.service.core import SchedulerService
from repro.service.lifecycle import check_books


@pytest.fixture
def store(tmp_path):
    """A small deterministic corpus: ~13 blocks of patterned text."""
    lines = [f"alpha beta gamma delta line {i:04d} spam" for i in range(160)]
    return BlockStore.create(tmp_path / "corpus", lines,
                             block_size_bytes=512)


def assert_books_balance(service):
    """Accounts, telemetry, trace and queue depths tell one story (the
    check ``python -m repro.service`` exits on)."""
    assert check_books(service) == []


@pytest.fixture(autouse=True)
def balanced_books(monkeypatch):
    """Teardown of every scenario: each service the test built is shut
    down and its books must balance.  Yields the list of services built,
    from which a test that checks a service's books itself may take it
    (the list holds a strong reference)."""
    built = []
    init = SchedulerService.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SchedulerService, "__init__", recording_init)
    yield built
    for service in built:
        service.shutdown()
        assert_books_balance(service)
