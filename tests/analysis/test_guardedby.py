"""REP007/REP008 fixtures: guarded-by inference over lock-aware classes."""

from __future__ import annotations

import textwrap

from repro.analysis import RULES_BY_CODE, analyze_source


def run_rule(code: str, source: str, path: str = "src/repro/x.py"):
    return analyze_source(textwrap.dedent(source), path,
                          [RULES_BY_CODE[code]])


# ------------------------------------------------------------------- REP007
class TestRep007Annotated:
    def test_unlocked_write_fires(self):
        violations = run_rule("REP007", """\
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._pending = 0  # guarded-by: _lock

                def bump(self):
                    self._pending += 1
            """)
        assert [v.code for v in violations] == ["REP007"]
        assert violations[0].line == 9
        assert "written in bump() without holding self._lock" \
            in violations[0].message

    def test_unlocked_read_fires(self):
        violations = run_rule("REP007", """\
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._pending = 0  # guarded-by: _lock

                def peek(self):
                    return self._pending
            """)
        assert len(violations) == 1
        assert "read in peek() without holding self._lock" \
            in violations[0].message

    def test_with_lock_access_is_clean(self):
        violations = run_rule("REP007", """\
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._pending = 0  # guarded-by: _lock

                def bump(self):
                    with self._lock:
                        self._pending += 1
                    return True
            """)
        assert violations == []

    def test_bare_acquire_release_region_is_held(self):
        violations = run_rule("REP007", """\
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: _lock

                def locked_then_not(self):
                    self._lock.acquire()
                    self._n += 1
                    self._lock.release()
                    self._n += 1
            """)
        assert len(violations) == 1
        assert violations[0].line == 12

    def test_condition_counts_as_lock_and_wait_keeps_held(self):
        violations = run_rule("REP007", """\
            import threading
            from repro.analysis.lockgraph import OrderedLock

            class Thing:
                def __init__(self):
                    self._cond = threading.Condition(OrderedLock("T.c"))
                    self._closed = False  # guarded-by: _cond

                def wait_closed(self):
                    with self._cond:
                        while not self._closed:
                            self._cond.wait(timeout=1.0)
                        self._closed = False
            """)
        assert violations == []

    def test_ordered_lock_factory_counts_as_lock(self):
        """The runtime builds its locks with ``ordered_lock``: bare or
        under a condition, its result guards what names it."""
        source = """\
            import threading
            from repro.analysis.lockgraph import ordered_lock

            class Thing:
                def __init__(self):
                    self._lock = ordered_lock("X._lock")
                    self._cond = threading.Condition(ordered_lock("X._cond"))
                    self._n = 0  # guarded-by: _lock
                    self._closed = False  # guarded-by: _cond

                def bump(self):
                    with self._lock:
                        self._n += 1

                def close(self):
                    with self._cond:
                        self._closed = True
                        self._cond.notify_all()
            """
        assert run_rule("REP007", source) == []
        violations = run_rule("REP007", source + """\

                def racy(self):
                    self._n += 1
                    return self._closed
            """)
        assert [v.line for v in violations] == [21, 22]

    def test_helper_called_only_under_lock_is_clean(self):
        violations = run_rule("REP007", """\
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: _lock

                def bump(self):
                    with self._lock:
                        self._bump_locked()

                def bump_twice(self):
                    with self._lock:
                        self._bump_locked()
                        self._bump_locked()

                def _bump_locked(self):
                    self._n += 1
            """)
        assert violations == []

    def test_helper_chain_propagates_to_fixpoint(self):
        violations = run_rule("REP007", """\
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: _lock

                def bump(self):
                    with self._lock:
                        self._outer()

                def _outer(self):
                    self._inner()

                def _inner(self):
                    self._n += 1
            """)
        assert violations == []

    def test_helper_with_one_unlocked_call_site_fires(self):
        violations = run_rule("REP007", """\
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: _lock

                def bump(self):
                    with self._lock:
                        self._bump_locked()

                def sloppy(self):
                    self._bump_locked()

                def _bump_locked(self):
                    self._n += 1
            """)
        # Intersection over call sites is empty, so the helper body is
        # treated as running unlocked and the access fires there.
        assert len(violations) == 1
        assert "_bump_locked()" in violations[0].message

    def test_public_method_assumed_callable_unlocked(self):
        violations = run_rule("REP007", """\
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: _lock

                def looks_like_helper(self):
                    self._n += 1

                def caller(self):
                    with self._lock:
                        self.looks_like_helper()
            """)
        # Public name: external callers need not hold the lock.
        assert len(violations) == 1

    def test_init_writes_are_exempt(self):
        violations = run_rule("REP007", """\
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: _lock
                    self._n = 1
            """)
        assert violations == []

    def test_unknown_lock_annotation_is_config_error(self):
        violations = run_rule("REP007", """\
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: _mutex
            """)
        assert len(violations) == 1
        assert "constructs no such lock" in violations[0].message
        assert "_lock" in violations[0].message

    def test_noqa_suppresses(self):
        violations = run_rule("REP007", """\
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: _lock

                def peek(self):
                    return self._n  # repro: noqa[REP007]
            """)
        assert violations == []


# ------------------------------------------------------------------- REP008
class TestRep008Inference:
    def test_mixed_locked_and_unlocked_writes_fire(self):
        violations = run_rule("REP008", """\
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def good(self):
                    with self._lock:
                        self._n += 1

                def bad(self):
                    self._n = 5
            """)
        assert [v.code for v in violations] == ["REP008"]
        assert "written both under a lock and outside any lock" \
            in violations[0].message
        assert "good():10" in violations[0].message
        assert "bad():13" in violations[0].message

    def test_two_disjoint_locks_fire(self):
        violations = run_rule("REP008", """\
            import threading

            class Thing:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                    self._n = 0

                def via_a(self):
                    with self._a:
                        self._n += 1

                def via_b(self):
                    with self._b:
                        self._n += 1
            """)
        assert len(violations) == 1
        assert "distinct locks with no common guard" in violations[0].message

    def test_consistent_single_lock_is_clean(self):
        violations = run_rule("REP008", """\
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def one(self):
                    with self._lock:
                        self._n += 1

                def two(self):
                    with self._lock:
                        self._n = 0
            """)
        assert violations == []

    def test_single_write_site_is_clean(self):
        violations = run_rule("REP008", """\
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def set(self, v):
                    self._n = v
            """)
        assert violations == []

    def test_annotated_attrs_are_rep007s_job(self):
        violations = run_rule("REP008", """\
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: _lock

                def good(self):
                    with self._lock:
                        self._n += 1

                def bad(self):
                    self._n = 5
            """)
        assert violations == []

    def test_lockless_class_is_skipped(self):
        violations = run_rule("REP008", """\
            class Plain:
                def __init__(self):
                    self._n = 0

                def one(self):
                    self._n += 1

                def two(self):
                    self._n = 0
            """)
        assert violations == []

    def test_init_writes_do_not_count_as_sites(self):
        violations = run_rule("REP008", """\
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0
                    self._n = 1

                def set(self):
                    with self._lock:
                        self._n = 2
            """)
        assert violations == []
