"""Per-rule fixtures: each REP rule fires on the violating form and
stays silent on the clean form."""

from __future__ import annotations

import dataclasses
import textwrap

import pytest

from repro.analysis import READSTATS_FIELDS, RULES_BY_CODE, analyze_source
from repro.localrt.storage import ReadStats


def run_rule(code: str, source: str, path: str = "src/repro/x.py"):
    return analyze_source(textwrap.dedent(source), path,
                          [RULES_BY_CODE[code]])


# ------------------------------------------------------------------- REP001
class TestRep001Wallclock:
    def test_time_call_fires_with_location(self):
        violations = run_rule("REP001", """\
            import time

            def stamp():
                return time.time()
            """, path="src/repro/simengine/sim.py")
        assert [v.code for v in violations] == ["REP001"]
        assert violations[0].line == 4
        assert "time.time" in violations[0].message

    @pytest.mark.parametrize("call", [
        "time.perf_counter()", "time.monotonic()", "time.time_ns()"])
    def test_other_time_reads_fire(self, call):
        violations = run_rule(
            "REP001", f"import time\nx = {call}\n",
            path="src/repro/metrics/m.py")
        assert len(violations) == 1

    def test_from_import_fires_at_import_line(self):
        violations = run_rule("REP001", """\
            from time import perf_counter, sleep
            """, path="src/repro/schedulers/s.py")
        assert len(violations) == 1
        assert violations[0].line == 1
        assert "perf_counter" in violations[0].message
        # sleep is not a wall-clock *read*
        assert "sleep" not in violations[0].message.split("(")[1]

    def test_datetime_now_fires(self):
        violations = run_rule(
            "REP001", "import datetime\nt = datetime.datetime.now()\n")
        assert len(violations) == 1

    def test_event_clock_and_timedelta_are_clean(self):
        violations = run_rule("REP001", """\
            import datetime

            def advance(sim):
                base = datetime.date(2011, 9, 13)
                return sim.now() + datetime.timedelta(days=1)
            """, path="src/repro/simengine/sim.py")
        assert violations == []

    def test_clock_module_is_allowlisted(self):
        violations = run_rule(
            "REP001", "import time\nnow = time.perf_counter()\n",
            path="src/repro/common/clock.py")
        assert violations == []


# ------------------------------------------------------------------- REP002
class TestRep002Randomness:
    def test_stdlib_random_import_fires(self):
        violations = run_rule("REP002", "import random\n")
        assert [v.code for v in violations] == ["REP002"]
        assert violations[0].line == 1

    def test_from_random_import_fires(self):
        assert len(run_rule("REP002", "from random import choice\n")) == 1

    def test_legacy_numpy_global_rng_fires(self):
        violations = run_rule("REP002", """\
            import numpy as np
            np.random.seed(0)
            x = np.random.normal(0, 1)
            """)
        assert len(violations) == 2

    def test_unseeded_default_rng_fires(self):
        violations = run_rule(
            "REP002", "import numpy as np\nrng = np.random.default_rng()\n")
        assert len(violations) == 1
        assert "unseeded" in violations[0].message

    def test_seeded_generator_is_clean(self):
        violations = run_rule("REP002", """\
            from repro.common.rng import make_rng

            def sample(seed):
                rng = make_rng(seed)
                return rng.normal(0.0, 1.0)
            """)
        assert violations == []

    def test_rng_module_is_allowlisted(self):
        violations = run_rule(
            "REP002", "import numpy as np\nr = np.random.default_rng()\n",
            path="src/repro/common/rng.py")
        assert violations == []


# ------------------------------------------------------------------- REP003
class TestRep003CounterWrites:
    def test_stats_field_write_fires(self):
        violations = run_rule("REP003", """\
            def cheat(store):
                store.stats.blocks_read += 5
            """)
        assert [v.code for v in violations] == ["REP003"]
        assert violations[0].line == 2
        assert "blocks_read" in violations[0].message

    def test_assignment_and_report_io_fire(self):
        violations = run_rule("REP003", """\
            def rewrite(report):
                report.io.view_blocks_read = 0
            """)
        assert len(violations) == 1

    def test_reads_and_other_attrs_are_clean(self):
        violations = run_rule("REP003", """\
            def observe(store):
                before = store.stats.blocks_read
                store.progress = before  # not a ReadStats field
                return store.stats.snapshot()
            """)
        assert violations == []

    def test_storage_and_counters_are_allowlisted(self):
        bad = "def f(self):\n    self.stats.blocks_read += 1\n"
        for path in ("src/repro/localrt/storage.py",
                     "src/repro/localrt/counters.py"):
            assert run_rule("REP003", bad, path=path) == []

    def test_field_set_matches_readstats_dataclass(self):
        """The rule's literal field list must track the dataclass."""
        actual = {f.name for f in dataclasses.fields(ReadStats)}
        assert actual == set(READSTATS_FIELDS)


# ------------------------------------------------------------------- REP004
class TestRep004BlockingUnderLock:
    def test_sleep_under_lock_fires(self):
        violations = run_rule("REP004", """\
            import time

            def hold(self):
                with self._lock:
                    time.sleep(0.1)
            """)
        assert [v.code for v in violations] == ["REP004"]
        assert violations[0].line == 5

    def test_file_io_under_lock_fires(self):
        violations = run_rule("REP004", """\
            def persist(self, path):
                with self._stats_lock:
                    data = path.read_bytes()
                return data
            """)
        assert len(violations) == 1
        assert "read_bytes" in violations[0].message

    def test_join_and_subprocess_fire(self):
        violations = run_rule("REP004", """\
            import subprocess

            def teardown(self):
                with self._lock:
                    self._thread.join()
                    subprocess.run(["sync"])
            """)
        assert len(violations) == 2

    def test_acquire_region_is_checked(self):
        violations = run_rule("REP004", """\
            def drain(self, work_queue):
                with self._lock.acquire():
                    item = work_queue.get()
                return item
            """)
        assert len(violations) == 1
        assert "queue" in violations[0].message

    def test_str_join_and_unlocked_io_are_clean(self):
        violations = run_rule("REP004", """\
            def render(self, path):
                with self._lock:
                    text = ", ".join(self._names)
                path.write_text(text)
            """)
        assert violations == []

    def test_nested_def_under_lock_is_exempt(self):
        violations = run_rule("REP004", """\
            def subscribe(self, path):
                with self._lock:
                    def callback():
                        return path.read_text()
                    self._callbacks.append(callback)
            """)
        assert violations == []

    def test_bare_acquire_release_span_fires(self):
        violations = run_rule("REP004", """\
            import time

            def hold(self):
                self._lock.acquire()
                time.sleep(0.1)
                self._lock.release()
                time.sleep(0.2)
            """)
        assert len(violations) == 1
        assert violations[0].line == 5

    def test_try_finally_release_idiom_fires(self):
        violations = run_rule("REP004", """\
            import time

            def hold(self):
                self._lock.acquire()
                try:
                    time.sleep(0.1)
                finally:
                    self._lock.release()
                time.sleep(0.2)
            """)
        assert len(violations) == 1
        assert violations[0].line == 6

    def test_one_hop_helper_call_fires_at_call_site(self):
        violations = run_rule("REP004", """\
            import time

            class Worker:
                def _slow(self):
                    time.sleep(0.5)

                def run(self):
                    with self._lock:
                        self._slow()
            """)
        assert len(violations) == 1
        assert violations[0].line == 9
        assert "self._slow()" in violations[0].message
        assert "sleep" in violations[0].message

    def test_one_hop_helper_locked_region_is_not_charged(self):
        violations = run_rule("REP004", """\
            import time

            class Worker:
                def _tidy(self):
                    with self._other_lock:
                        pass
                    time.sleep(0)  # outside its own lock: fine to call

                def run(self):
                    with self._lock:
                        self._tidy()
            """)
        # The helper sleeps, so calling it under a lock still fires...
        assert len(violations) == 1
        violations = run_rule("REP004", """\
            import time

            class Worker:
                def _tidy(self):
                    self._names.clear()

                def run(self):
                    with self._lock:
                        self._tidy()
            """)
        # ...but a non-blocking helper is clean.
        assert violations == []

    def test_condition_wait_is_carved_out(self):
        violations = run_rule("REP004", """\
            def await_done(self):
                with self._cond:
                    while not self._done:
                        self._cond.wait(timeout=1.0)
                with self._cond:
                    self._cond.wait_for(lambda: self._done)
            """)
        assert violations == []

    def test_wait_on_non_condition_receiver_still_fires(self):
        violations = run_rule("REP004", """\
            def join_up(self):
                with self._lock:
                    self._thread.wait()
            """)
        assert len(violations) == 1


# ------------------------------------------------------------------- REP005
class TestRep005Annotations:
    def test_unannotated_public_function_fires(self):
        violations = run_rule("REP005", """\
            def launch(task, node):
                return None
            """, path="src/repro/schedulers/fifo.py")
        assert len(violations) == 2  # params + return
        assert violations[0].line == 1
        assert "task" in violations[0].message

    def test_missing_return_only(self):
        violations = run_rule("REP005", """\
            class Runner:
                def run(self, depth: int = 2):
                    return depth
            """, path="src/repro/localrt/runners.py")
        assert len(violations) == 1
        assert "return" in violations[0].message

    def test_fully_annotated_is_clean(self):
        violations = run_rule("REP005", """\
            class Runner:
                def run(self, depth: int = 2) -> int:
                    return depth

                def _helper(self, anything):
                    return anything
            """, path="src/repro/localrt/runners.py")
        assert violations == []

    def test_nested_defs_are_exempt(self):
        violations = run_rule("REP005", """\
            def outer() -> int:
                def inner(x):
                    return x
                return inner(1)
            """, path="src/repro/localrt/engine.py")
        assert violations == []

    def test_out_of_scope_paths_are_ignored(self):
        violations = run_rule(
            "REP005", "def loose(x):\n    return x\n",
            path="src/repro/workloads/text.py")
        assert violations == []


# ------------------------------------------------------------------- REP006
class TestRep006ObsOnly:
    def test_print_in_localrt_fires(self):
        violations = run_rule("REP006", """\
            def debug_dump(report):
                print("blocks:", report.blocks_read)
            """, path="src/repro/localrt/runners.py")
        assert [v.code for v in violations] == ["REP006"]
        assert violations[0].line == 2
        assert "repro.obs" in violations[0].message

    def test_logging_import_in_schedulers_fires(self):
        violations = run_rule(
            "REP006", "import logging\n",
            path="src/repro/schedulers/s3/scheduler.py")
        assert len(violations) == 1
        assert "logging" in violations[0].message

    def test_logging_from_import_fires(self):
        violations = run_rule(
            "REP006", "from logging import getLogger\n",
            path="src/repro/localrt/engine.py")
        assert len(violations) == 1

    def test_logger_emission_fires(self):
        violations = run_rule("REP006", """\
            def advance(logger, n):
                logger.info("pointer now at %d", n)
            """, path="src/repro/schedulers/s3/scanloop.py")
        assert len(violations) == 1
        assert ".info()" in violations[0].message

    def test_tracer_emission_is_clean(self):
        violations = run_rule("REP006", """\
            def advance(tracer, n):
                tracer.event("s3.pointer", pointer=n)
                with tracer.span("s3.iteration"):
                    pass
            """, path="src/repro/schedulers/s3/scheduler.py")
        assert violations == []

    def test_warnings_warn_is_clean(self):
        # DeprecationWarning shims are not telemetry.
        violations = run_rule("REP006", """\
            import warnings

            def shim():
                warnings.warn("deprecated", DeprecationWarning)
            """, path="src/repro/localrt/runners.py")
        assert violations == []

    def test_print_outside_scope_is_clean(self):
        violations = run_rule(
            "REP006", "print('hello')\n",
            path="src/repro/experiments/cli.py")
        assert violations == []

    def test_noqa_suppresses(self):
        violations = run_rule(
            "REP006", "print('x')  # repro: noqa[REP006]\n",
            path="src/repro/localrt/engine.py")
        assert violations == []


# ------------------------------------------------------------------- noqa
class TestSuppression:
    def test_noqa_with_code_suppresses(self):
        violations = run_rule(
            "REP002", "import random  # repro: noqa[REP002]\n")
        assert violations == []

    def test_noqa_with_other_code_does_not_suppress(self):
        violations = run_rule(
            "REP002", "import random  # repro: noqa[REP001]\n")
        assert len(violations) == 1

    def test_blanket_noqa_suppresses(self):
        violations = run_rule("REP002", "import random  # repro: noqa\n")
        assert violations == []

    def test_syntax_error_reports_rep000(self):
        violations = analyze_source("def broken(:\n", "src/x.py",
                                    list(RULES_BY_CODE.values()))
        assert [v.code for v in violations] == ["REP000"]
