"""The suite runs with lock-order checking on, runtime locks included.

A runtime lock is checked only if checking was on when it was built
(``ordered_lock``), and the table unbound blocks encode against builds
its lock when ``repro`` is first imported.  ``tests/conftest.py`` sets the
switch before that import; the tier-1 command sets no environment
variable, so this test is what keeps that order from regressing
unseen.
"""

from repro.analysis.lockgraph import OrderedLock, lockcheck_enabled
from repro.localrt import tokens
from repro.localrt.storage import BlockStore


def test_lockcheck_is_on_and_runtime_locks_are_checked(tmp_path):
    assert lockcheck_enabled() is True
    assert isinstance(tokens.UNBOUND._lock, OrderedLock)
    store = BlockStore.create(tmp_path / "s", ["a b", "c d"], 4)
    assert isinstance(store._stats_lock, OrderedLock)
