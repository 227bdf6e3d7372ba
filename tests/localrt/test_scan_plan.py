"""The shared-scan plan, pinned: both front-ends must reproduce it.

``PLAN`` was generated from ``SharedScanRunner._scan_loop`` — the
hand-written second loop — at the last commit that had it, and is kept
as literals so the one core that replaced it is checked against what the
deleted code did, not against itself.  Each schedule runs through the
batch front-end (``SharedScanRunner.run`` with ``on_iteration_end``) and
the live one (a step-mode ``SchedulerService`` fed by
``submit_at_iteration``) under every ``map_backend`` name.

The store has 10 blocks of 128 bytes.  With a fixed segment grid every
admission happens at a segment boundary, so a job can never end inside a
chunk: every block of a wave carries the same riders (asserted below),
and "finishing mid-file" — a job whose last chunk is not the file's
last, while a later joiner rides on — is the closest reachable case.
"""

import pytest

from repro.common.config import MAP_BACKENDS, ExecutionConfig
from repro.localrt.jobs import wordcount_job
from repro.localrt.runners import SharedScanRunner
from repro.localrt.storage import BlockStore
from repro.obs import Tracer
from repro.service import SchedulerService, ServiceConfig

PATTERNS = {"a": r"^w0.*", "b": r".*1$", "c": r".*"}

#: schedule -> blocks per segment, arrival iteration per job, then:
#: steps = (iteration, pointer, blocks, rider ids in admit order);
#: jobs = (completed_iteration, completed_blocks_read, start_block);
#: io = logical (blocks_read, bytes_read) of the whole run.
PLAN = {
    "simultaneous": {
        "segment": 4, "arrivals": {"a": 0, "b": 0, "c": 0},
        "steps": [(0, 0, 4, ("a", "b", "c")),
                  (1, 4, 4, ("a", "b", "c")),
                  (2, 8, 2, ("a", "b", "c"))],
        "jobs": {"a": (2, 10, 0), "b": (2, 10, 0), "c": (2, 10, 0)},
        "iterations": 3, "io": (10, 1280)},
    "staggered_by_one": {
        "segment": 4, "arrivals": {"a": 0, "b": 1, "c": 2},
        "steps": [(0, 0, 4, ("a",)),
                  (1, 4, 4, ("a", "b")),
                  (2, 8, 2, ("a", "b", "c")),
                  (3, 0, 4, ("b", "c")),
                  (4, 4, 4, ("c",))],
        "jobs": {"a": (2, 10, 0), "b": (3, 14, 4), "c": (4, 18, 8)},
        "iterations": 5, "io": (18, 2304)},
    "idle_gap": {
        "segment": 4, "arrivals": {"a": 0, "b": 50},
        "steps": [(0, 0, 4, ("a",)),
                  (1, 4, 4, ("a",)),
                  (2, 8, 2, ("a",)),
                  (50, 0, 4, ("b",)),
                  (51, 4, 4, ("b",)),
                  (52, 8, 2, ("b",))],
        "jobs": {"a": (2, 10, 0), "b": (52, 20, 0)},
        "iterations": 53, "io": (20, 2560)},
    "finish_mid_file": {
        "segment": 4, "arrivals": {"a": 0, "b": 1, "c": 3},
        "steps": [(0, 0, 4, ("a",)),
                  (1, 4, 4, ("a", "b")),
                  (2, 8, 2, ("a", "b")),
                  (3, 0, 4, ("b", "c")),
                  (4, 4, 4, ("c",)),
                  (5, 8, 2, ("c",))],
        "jobs": {"a": (2, 10, 0), "b": (3, 14, 4), "c": (5, 20, 0)},
        "iterations": 6, "io": (20, 2560)},
    "ragged_last_segment": {
        "segment": 3, "arrivals": {"a": 0, "b": 1},
        "steps": [(0, 0, 3, ("a",)),
                  (1, 3, 3, ("a", "b")),
                  (2, 6, 3, ("a", "b")),
                  (3, 9, 1, ("a", "b")),
                  (4, 0, 3, ("b",))],
        "jobs": {"a": (3, 10, 0), "b": (4, 13, 3)},
        "iterations": 5, "io": (13, 1664)},
    "wrap_around_join": {
        "segment": 4, "arrivals": {"a": 0, "b": 2, "c": 2},
        "steps": [(0, 0, 4, ("a",)),
                  (1, 4, 4, ("a",)),
                  (2, 8, 2, ("a", "b", "c")),
                  (3, 0, 4, ("b", "c")),
                  (4, 4, 4, ("b", "c"))],
        "jobs": {"a": (2, 10, 0), "b": (4, 18, 8), "c": (4, 18, 8)},
        "iterations": 5, "io": (18, 2304)},
}


@pytest.fixture
def store(tmp_path):
    # 31 characters + newline: exactly four lines per 128-byte block.
    lines = [f"w{i % 7:02d} x{i % 5:02d} y{i % 3:02d} z{i:04d} pad pad pad q"
             for i in range(40)]
    store = BlockStore.create(tmp_path / "s", lines, block_size_bytes=128)
    assert store.num_blocks == 10
    return store


def traced_steps(tracer):
    """(iteration, pointer, blocks, riders) of every ``s3.iteration`` span,
    checking on the way that each block of the wave had every rider (a
    span is recorded when it closes, so a wave's ``map.task`` spans
    precede its ``s3.iteration`` record)."""
    steps = []
    per_block = []
    for event in tracer.events():
        if event.name == "map.task":
            per_block.append(tuple(event.args["job_ids"]))
        elif event.name == "s3.iteration":
            riders = tuple(event.args["job_ids"])
            assert per_block == [riders] * event.args["blocks"]
            per_block = []
            steps.append((int(event.subject.removeprefix("iter_")),
                          event.args["pointer"], event.args["blocks"],
                          riders))
    return steps


def run_batch(store, config, arrivals, tracer):
    hooked = []
    report = SharedScanRunner(store, config, tracer=tracer).run(
        [wordcount_job(job_id, PATTERNS[job_id]) for job_id in arrivals],
        arrivals,
        on_iteration_end=lambda iteration, states: hooked.append(
            (iteration, tuple(state.job.job_id for state in states))))
    steps = traced_steps(tracer)
    # The hook saw every iteration, with that iteration's riders.
    assert hooked == [(iteration, riders)
                      for iteration, _, _, riders in steps]
    start_block: dict[str, int] = {}
    for _, pointer, _, riders in steps:
        for job_id in riders:
            start_block.setdefault(job_id, pointer)
    jobs = {job_id: (report.result(job_id).completed_iteration,
                     report.result(job_id).completed_blocks_read,
                     start_block[job_id])
            for job_id in arrivals}
    return steps, jobs, report.iterations


def run_live(store, config, arrivals, tracer):
    service = SchedulerService(store, ServiceConfig(execution=config),
                               tracer=tracer)
    try:
        for job_id, at_iteration in arrivals.items():
            service.submit_at_iteration(
                wordcount_job(job_id, PATTERNS[job_id]), at_iteration)
        while service.step():
            pass
        tickets = {job_id: service.status(job_id) for job_id in arrivals}
        iterations = service.iterations
    finally:
        service.shutdown()
    jobs = {job_id: (ticket.result.completed_iteration,
                     ticket.result.completed_blocks_read,
                     ticket.start_block)
            for job_id, ticket in tickets.items()}
    return traced_steps(tracer), jobs, iterations


@pytest.mark.parametrize("backend", MAP_BACKENDS)
@pytest.mark.parametrize("front_end", [run_batch, run_live],
                         ids=["batch", "live"])
@pytest.mark.parametrize("schedule", sorted(PLAN))
def test_front_end_reproduces_the_pinned_plan(store, schedule, front_end,
                                              backend):
    expected = PLAN[schedule]
    config = ExecutionConfig(blocks_per_segment=expected["segment"],
                             map_backend=backend, map_workers=2)
    before = store.stats_snapshot()
    steps, jobs, iterations = front_end(store, config, expected["arrivals"],
                                        Tracer(name="plan"))
    io = store.stats_snapshot().delta(before)
    assert steps == expected["steps"]
    assert jobs == expected["jobs"]
    assert iterations == expected["iterations"]
    assert (io.blocks_read, io.bytes_read) == expected["io"]
