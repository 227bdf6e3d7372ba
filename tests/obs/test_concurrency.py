"""Tracing from several threads at once: per-lane span trees stay sane.

Each thread records into its own lane (the thread name), so even with
concurrent recording — two runners sharing one tracer — the exported
structure must be well-nested per lane: spans at the same depth never
partially overlap, and deeper spans lie inside an enclosing shallower
span.
"""

import tempfile
import threading
from pathlib import Path

import pytest

from repro.common.config import ExecutionConfig
from repro.localrt.jobs import wordcount_job
from repro.localrt.runners import SharedScanRunner
from repro.localrt.storage import BlockStore
from repro.obs import Tracer

_EPS = 1e-6


@pytest.fixture(scope="module")
def corpus():
    with tempfile.TemporaryDirectory() as tmp:
        lines = [f"the quick brown fox number {i}" for i in range(300)]
        yield BlockStore.create(Path(tmp) / "corpus", lines,
                                block_size_bytes=256)


def _assert_well_nested_per_lane(spans):
    by_lane = {}
    for span in spans:
        by_lane.setdefault(span.lane, []).append(span)
    for lane, lane_spans in by_lane.items():
        # Same-depth spans in one lane must not partially overlap.
        for depth in {s.depth for s in lane_spans}:
            level = sorted((s for s in lane_spans if s.depth == depth),
                           key=lambda s: (s.ts, -s.dur))
            for a, b in zip(level, level[1:]):
                disjoint = a.ts + a.dur <= b.ts + _EPS
                nested = b.ts + b.dur <= a.ts + a.dur + _EPS
                assert disjoint or nested, (
                    f"lane {lane}: {a.name} and {b.name} partially overlap")
        # Every deeper span lies inside some shallower span of the lane.
        for span in lane_spans:
            if span.depth == 0:
                continue
            parents = [p for p in lane_spans if p.depth == span.depth - 1
                       and p.ts <= span.ts + _EPS
                       and span.ts + span.dur <= p.ts + p.dur + _EPS]
            assert parents, (
                f"lane {lane}: {span.name} (depth {span.depth}) has no "
                "enclosing span")


def test_two_runners_on_one_tracer_produce_well_nested_span_trees(corpus):
    tracer = Tracer(name="test")
    reports = []

    def scan(pattern):
        runner = SharedScanRunner(
            corpus, ExecutionConfig(blocks_per_segment=4), tracer=tracer)
        reports.append(runner.run([wordcount_job("wc0", pattern),
                                   wordcount_job("wc1", ".*ing$")]))

    threads = [threading.Thread(target=scan, args=(pattern,),
                                name=f"runner-{k}")
               for k, pattern in enumerate(("^th.*", "^qu.*"))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert len(reports) == 2 and all(r.results for r in reports)

    spans = list(tracer.spans())
    tasks = [s for s in spans if s.name == "map.task"]
    # Every block of every wave of each runner produced one task span.
    assert len(tasks) == 2 * corpus.num_blocks
    _assert_well_nested_per_lane(spans)

    # One lane per runner thread, and each lane holds its own waves.
    task_lanes = {s.lane for s in tasks}
    assert task_lanes == {"runner-0", "runner-1"}
    assert {s.lane for s in spans if s.name == "map.wave"} == task_lanes


def test_serial_backend_tasks_nest_inside_wave(corpus):
    tracer = Tracer(name="test")
    runner = SharedScanRunner(
        corpus, ExecutionConfig(blocks_per_segment=4), tracer=tracer)
    runner.run([wordcount_job("wc0", "^th.*")])
    spans = list(tracer.spans())
    _assert_well_nested_per_lane(spans)
    # Serial path: tasks record on the same lane as the wave, one level
    # deeper (inside s3.run > s3.iteration > map.wave).
    waves = [s for s in spans if s.name == "map.wave"]
    tasks = [s for s in spans if s.name == "map.task"]
    assert waves and tasks
    assert {t.depth for t in tasks} == {waves[0].depth + 1}
