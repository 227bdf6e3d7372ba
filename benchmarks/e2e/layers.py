"""The traced replay: where a job's time goes, layer by layer.

Deterministic, single-threaded, no sleeps, on the first
``spec.REPLAY_JOBS`` jobs of a workload's schedule mapped to iteration
time.  Only calls into public functions are timed, all from this file.

* **Pass A** runs the real system — the service in step mode (one
  ``service.step`` span per ``step()``), or ``SharedScanRunner.run`` per
  batch on ``sel_batch`` — and between iterations reads ``service.jobs()``
  (or the ``on_iteration_end`` hook) to record the *plan*: which blocks,
  which riders per block, who finishes.
* **Pass B** replays that plan with fresh jobs, one span per call, in the
  order a block travels: ``store.read`` -> ``blockdata.derive`` ->
  ``map.kernel`` -> ``shuffle.absorb`` -> ``reduce.run`` ->
  ``output.write``.  Its outputs must equal Pass A's.  It runs twice,
  spans on and off; the difference is the tracing overhead.
* **Pass C** hands the same waves to the workload's map backend
  (``make_backend(name, workers=2).run_wave``) for the ``parallel`` rows.

The passes are interleaved, not run one after the other: after each
unit of Pass A (one ``step()``, or one batch) the other three replay
that unit's iterations.  Rows are compared across passes (core self
time = A - C - absorb - reduce; overhead = B on - B off), and this
host's speed drifts by +-10 % over seconds — interleaving puts the
numbers being subtracted a few milliseconds apart.
"""

from __future__ import annotations

import collections
import dataclasses
import pathlib
import shutil
from typing import Callable, Iterator

import live
import measure
import spec

from repro.common.clock import Stopwatch, monotonic_clock
from repro.localrt import (
    BlockData,
    BlockStoreProtocol,
    JobResult,
    JobRunState,
    MapTaskSpec,
    ReadStats,
    Record,
    ShardedBlockStore,
    SharedScanRunner,
    collect_map_outputs,
    count_pending_values,
    make_backend,
    run_reduce,
    write_output,
)
from repro.localrt.engine import absorb_map_result
from repro.obs.export import export_chrome
from repro.obs.tracer import Tracer
from repro.service import JobStatus, SchedulerService, replay_iterations


#: On ``sel_batch`` the replay's shard outage: shard 1 goes down before
#: this batch and comes back before that one (of ``REPLAY_JOBS // 8``).
OUTAGE_BATCHES = {2: "fail", 5: "restore"}

#: Leaf spans of Pass B, in the order a block travels.
LEAVES = ("store.read", "blockdata.derive", "map.kernel", "shuffle.absorb",
          "reduce.run", "output.write")


@dataclasses.dataclass
class Step:
    """One scan iteration of the plan."""

    index: int
    blocks: tuple[int, ...]
    riders: dict[int, tuple[str, ...]]      # block -> job ids, admit order
    finishing: tuple[str, ...]
    shard_action: str | None = None         # "fail" | "restore", before it


@dataclasses.dataclass
class Plan:
    """What Pass A did so far and what it produced (filled unit by unit)."""

    steps: list[Step] = dataclasses.field(default_factory=list)
    definitions: dict[str, str] = dataclasses.field(default_factory=dict)
    outputs: dict[str, list[Record]] = dataclasses.field(default_factory=dict)
    queue_wait_s: list[float] = dataclasses.field(default_factory=list)
    io: ReadStats = dataclasses.field(default_factory=ReadStats)

    def add_step(self, riders: dict[int, list[str]], finishing: list[str],
                 shard_action: str | None = None) -> Step:
        blocks = tuple(sorted(riders))
        step = Step(len(self.steps), blocks,
                    {block: tuple(riders[block]) for block in blocks},
                    tuple(finishing), shard_action)
        self.steps.append(step)
        return step


def _apply_shard_action(store: BlockStoreProtocol, action: str | None) -> None:
    if action is not None:
        assert isinstance(store, ShardedBlockStore)
        (store.fail_shard if action == "fail" else store.restore_shard)(1)


# ------------------------------------------------------------------ pass A
def service_units(workload: spec.Workload, directory: pathlib.Path,
                  seed: int, tracer: Tracer,
                  plan: Plan) -> Iterator[list[Step]]:
    """Pass A on a live-service workload: the real service in step mode,
    yielding the iteration each ``step()`` ran."""
    store = spec.open_fresh(workload, directory)
    service = SchedulerService(store, workload.service_config())
    events = spec.replay_schedule(workload, seed)
    position = {(event.tenant, event.index): index
                for index, event in enumerate(events)}
    cycle = spec.definition_cycle(workload, seed)

    def factory(event):
        index = position[(event.tenant, event.index)]
        definition = cycle[index % len(cycle)]
        plan.definitions[f"job_{index}"] = definition
        return spec.make_job(definition, f"job_{index}")

    replay_iterations(service, events, factory,
                      iterations_per_second=workload.replay_ips)
    num_blocks = store.num_blocks
    covered: dict[str, int] = collections.defaultdict(int)
    more = True
    try:
        while more:
            with tracer.span("service.step",
                             subject=f"iter_{len(plan.steps)}"):
                more = service.step()
            riders: dict[int, list[str]] = collections.defaultdict(list)
            finishing: list[str] = []
            for ticket in service.jobs():
                before = covered[ticket.job_id]
                if ticket.covered_blocks == before:
                    continue
                assert ticket.start_block is not None
                for offset in range(before, ticket.covered_blocks):
                    riders[(ticket.start_block + offset) % num_blocks].append(
                        ticket.job_id)
                covered[ticket.job_id] = ticket.covered_blocks
                if ticket.status is JobStatus.DONE:
                    assert ticket.result is not None
                    finishing.append(ticket.job_id)
                    plan.outputs[ticket.job_id] = ticket.result.output
            if riders:
                yield [plan.add_step(riders, finishing)]
        plan.queue_wait_s = [ticket.wait_s for ticket in service.jobs()
                             if ticket.wait_s is not None]
        plan.io = store.stats_snapshot()
    finally:
        service.shutdown()                  # the processes backend's pool


def batch_units(workload: spec.Workload, directory: pathlib.Path,
                tracer: Tracer, plan: Plan) -> Iterator[list[Step]]:
    """Pass A on ``sel_batch``: the real batch runner, yielding each
    batch's iterations as its ``on_iteration_end`` hook saw them."""
    store = spec.open_fresh(workload, directory)
    clock = monotonic_clock()
    num_blocks = store.num_blocks
    with SharedScanRunner(store, workload.execution(),
                          reader=workload.reader()) as runner:
        for batch in range(spec.REPLAY_JOBS // len(spec.BATCH_DEFINITIONS)):
            action = OUTAGE_BATCHES.get(batch)
            _apply_shard_action(store, action)
            jobs, arrivals, names = live.batch_jobs(f"b{batch}")
            plan.definitions.update(
                (job.job_id, name) for job, name in zip(jobs, names))
            #: (active job ids, logical blocks read so far, time)
            seen: list[tuple[list[str], int, float]] = []

            def hook(_iteration, states, seen=seen):
                seen.append(([state.job.job_id for state in states],
                             store.logical_blocks_read(), clock()))

            blocks_before = store.logical_blocks_read()
            started = clock()
            with tracer.span("service.step", subject=f"batch_{batch}"):
                report = runner.run(jobs, arrivals, on_iteration_end=hook)
            plan.outputs.update((job_id, result.output)
                                for job_id, result in report.results.items())
            # Job i joins at iteration i: it waited for i - 1 to end.
            plan.queue_wait_s.append(0.0)
            plan.queue_wait_s.extend(
                at - started for _, _, at in seen[:len(jobs) - 1])
            unit = []
            pointer = 0
            covered: dict[str, int] = collections.defaultdict(int)
            for active, blocks_now, _ in seen:
                chunk = blocks_now - blocks_before
                blocks_before = blocks_now
                riders: dict[int, list[str]] = collections.defaultdict(list)
                finishing = []
                for job_id in active:
                    take = min(chunk, num_blocks - covered[job_id])
                    for offset in range(take):
                        riders[pointer + offset].append(job_id)
                    covered[job_id] += take
                    if covered[job_id] == num_blocks:
                        finishing.append(job_id)
                unit.append(plan.add_step(riders, finishing, action))
                action = None
                pointer = (pointer + chunk) % num_blocks
            yield unit
    plan.io = store.stats_snapshot()


# ------------------------------------------------------------------ pass B
class SpanLog:
    """In-memory recorder of back-to-back spans (``lap`` ends one span
    and starts the next on a single clock read, so nothing falls between
    two leaves but the loop itself)."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int]] = []
        self._clock = monotonic_clock()
        self._mark = 0.0
        self._iteration = -1
        self._iteration_start = 0.0

    def begin(self, iteration: int) -> None:
        if self.enabled:
            self._iteration = iteration
            self._iteration_start = self._clock()

    def end(self) -> None:
        if self.enabled:
            self.spans.append(("replay.iteration", self._iteration_start,
                               self._clock(), self._iteration))

    def start(self) -> None:
        if self.enabled:
            self._mark = self._clock()

    def lap(self, name: str) -> None:
        if self.enabled:
            now = self._clock()
            self.spans.append((name, self._mark, now, self._iteration))
            self._mark = now

    def totals(self) -> dict[str, float]:
        totals: dict[str, float] = collections.defaultdict(float)
        for name, start, end, _ in self.spans:
            totals[name] += end - start
        return totals

    def write_to(self, tracer: Tracer) -> None:
        """Copy the spans into a repo ``Tracer`` (parents first, so the
        Chrome export nests leaves under their iteration)."""
        for name, start, end, iteration in sorted(
                self.spans, key=lambda span: (span[1], -span[2])):
            tracer.span_at(name, start, end, subject=f"iter_{iteration}",
                           lane="replay",
                           depth=0 if name == "replay.iteration" else 1,
                           iteration=iteration)


#: One block visit of a resolved step: (block, byte offset, rider states).
_Visit = tuple[int, int, list[JobRunState]]


class _PlanFollower:
    """State a pass needs to follow the plan: its own store handle (with
    the workload's cache) and a fresh job state per job id."""

    def __init__(self, workload: spec.Workload, directory: pathlib.Path,
                 plan: Plan) -> None:
        self.store = spec.open_fresh(workload, directory)
        if workload.cache_bytes is not None:
            self.store.ensure_cache(workload.cache_bytes)
        self.reader = workload.reader()
        self._plan = plan
        self.states: dict[str, JobRunState] = {}
        self.wall_s = 0.0
        self.bytes_read = 0
        self.bytes_mapped = 0               # block bytes x riders

    def resolve(self, step: Step) -> list[_Visit]:
        """Untimed: look up everything the step's timed calls need, and
        create the job states of riders seen for the first time."""
        visits = []
        for block in step.blocks:
            riders = []
            for job_id in step.riders[block]:
                if job_id not in self.states:
                    self.states[job_id] = JobRunState(spec.make_job(
                        self._plan.definitions[job_id], job_id))
                riders.append(self.states[job_id])
            visits.append((block, self.store.block_offset(block), riders))
            size = self.store.block_size_bytes(block)
            self.bytes_read += size
            self.bytes_mapped += size * len(riders)
        return visits


class Replayer(_PlanFollower):
    """Pass B: the plan again, one timed call per layer."""

    def __init__(self, workload: spec.Workload, directory: pathlib.Path,
                 plan: Plan, log: SpanLog, out_dir: pathlib.Path) -> None:
        super().__init__(workload, directory, plan)
        self.log = log
        self._out_dir = out_dir
        self._derive: Callable[[BlockData], object] = (
            BlockData.token_counts if workload.corpus == "text"
            else BlockData.lines)
        self.outputs: dict[str, list[Record]] = {}
        self.reduce_input_values = 0
        self._part_files: list[pathlib.Path] = []

    @property
    def records_absorbed(self) -> int:
        return sum(state.map_output_records
                   for state in self.states.values())

    @property
    def bytes_written(self) -> int:
        return sum(path.stat().st_size for path in self._part_files)

    def run(self, steps: list[Step]) -> None:
        resolved = [(step, self.resolve(step)) for step in steps]
        store, reader, log = self.store, self.reader, self.log
        watch = Stopwatch()
        for step, visits in resolved:
            _apply_shard_action(store, step.shard_action)
            log.begin(step.index)
            for block, offset, riders in visits:
                log.start()
                raw = store.read_block_bytes(block)
                log.lap("store.read")
                data = BlockData(raw)
                self._derive(data)
                log.lap("blockdata.derive")
                count, buffers, counters = collect_map_outputs(
                    [state.job for state in riders], reader, data, offset)
                log.lap("map.kernel")
                for state, buffer, task_counters in zip(riders, buffers,
                                                        counters):
                    absorb_map_result(state, count, buffer, task_counters)
                log.lap("shuffle.absorb")
            for job_id in step.finishing:
                state = self.states[job_id]
                log.start()
                self.reduce_input_values += count_pending_values(state)
                output = run_reduce(state)
                log.lap("reduce.run")
                self._part_files += write_output(
                    JobResult(job_id=job_id, output=output),
                    self._out_dir / job_id)
                log.lap("output.write")
                self.outputs[job_id] = output
            log.end()
        self.wall_s += watch.elapsed()


# ------------------------------------------------------------------ pass C
class WaveRunner(_PlanFollower):
    """Pass C: every wave of the plan through the workload's map backend."""

    def __init__(self, workload: spec.Workload, directory: pathlib.Path,
                 plan: Plan) -> None:
        super().__init__(workload, directory, plan)
        self.backend = make_backend(workload.map_backend,
                                    workers=spec.MAP_WORKERS)
        self._warm = False

    def run(self, steps: list[Step]) -> None:
        waves = [(step, [MapTaskSpec(block, tuple(riders))
                         for block, _, riders in self.resolve(step)])
                 for step in steps]
        if not self._warm:
            # Pool start-up is set-up, not a wave: one wave untimed first.
            self.backend.run_wave(self.store, self.reader, waves[0][1])
            self._warm = True
        for step, tasks in waves:
            _apply_shard_action(self.store, step.shard_action)
            watch = Stopwatch()
            self.backend.run_wave(self.store, self.reader, tasks)
            self.wall_s += watch.elapsed()


# ---------------------------------------------------------------- assembly
def traced_layers(workload: spec.Workload, directory: pathlib.Path,
                  seed: int, work_dir: pathlib.Path,
                  trace_path: pathlib.Path) -> tuple[dict[str, float], bool]:
    """Run the interleaved passes; return the replay's per-layer metrics
    and whether Pass B reproduced Pass A's outputs."""
    plan = Plan()
    step_tracer = Tracer("e2e-pass-a")
    if workload.loop == "batch":
        units = batch_units(workload, directory, step_tracer, plan)
    else:
        units = service_units(workload, directory, seed, step_tracer, plan)
    log = SpanLog(enabled=True)
    traced = Replayer(workload, directory, plan, log, work_dir / "out_on")
    untraced = Replayer(workload, directory, plan, SpanLog(enabled=False),
                        work_dir / "out_off")
    waves = WaveRunner(workload, directory, plan)
    try:
        followers = [traced, untraced, waves]
        for steps in units:
            for follower in followers:
                follower.run(steps)
            # Whoever follows Pass A finds the caches cold; take turns.
            followers.append(followers.pop(0))
    finally:
        waves.backend.close()
    span_tracer = Tracer("e2e-pass-b")
    log.write_to(span_tracer)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    export_chrome(trace_path, [step_tracer, span_tracer])

    jobs = len(plan.definitions)
    step_s = sum(span.dur for span in step_tracer.spans())
    total = log.totals()
    leaves = sum(total[name] for name in LEAVES)
    serial_map_s = (total["store.read"] + total["blockdata.derive"]
                    + total["map.kernel"])
    workers = 1 if workload.map_backend == "serial" else spec.MAP_WORKERS
    speedup = serial_map_s / waves.wall_s
    riders_per_step = [len(set().union(*step.riders.values()))
                       for step in plan.steps]

    def ms_per_job(seconds: float) -> float:
        return 1e3 * seconds / jobs

    def mb_per_s(nbytes: int, seconds: float) -> float:
        return nbytes / spec.MB / seconds

    metrics = {
        "service.step_ms_per_job": ms_per_job(step_s),
        "service.core_self_ms_per_job": ms_per_job(
            step_s - waves.wall_s - total["shuffle.absorb"]
            - total["reduce.run"]),
        "sched.iterations": len(plan.steps),
        "sched.blocks_read": sum(len(step.blocks) for step in plan.steps),
        "sched.jobs_per_iteration_mean":
            sum(riders_per_step) / len(riders_per_step),
        "store.read_ms_per_job": ms_per_job(total["store.read"]),
        "store.read_mb_per_s":
            mb_per_s(traced.bytes_read, total["store.read"]),
        "store.blocks_read": plan.io.blocks_read,
        "store.physical_blocks_read": plan.io.physical_blocks_read,
        "store.cache_hit_ratio": plan.io.cache_hit_ratio,
        "store.prefetched_blocks": plan.io.prefetched_blocks,
        "store.replica_fallback_reads": plan.io.replica_fallback_reads,
        "blockdata.derive_ms_per_job": ms_per_job(total["blockdata.derive"]),
        "blockdata.derive_mb_per_s":
            mb_per_s(traced.bytes_read, total["blockdata.derive"]),
        "map.kernel_ms_per_job": ms_per_job(total["map.kernel"]),
        "map.kernel_mb_per_s":
            mb_per_s(traced.bytes_mapped, total["map.kernel"]),
        "map.output_records_per_job": traced.records_absorbed / jobs,
        "shuffle.absorb_ms_per_job": ms_per_job(total["shuffle.absorb"]),
        "shuffle.records_absorbed": traced.records_absorbed,
        "reduce.ms_per_job": ms_per_job(total["reduce.run"]),
        "reduce.input_values": traced.reduce_input_values,
        "output.write_ms_per_job": ms_per_job(total["output.write"]),
        "output.bytes_written": traced.bytes_written,
        "parallel.wave_ms_per_job": ms_per_job(waves.wall_s),
        "parallel.speedup_vs_serial": speedup,
        "parallel.efficiency": speedup / workers,
        "replay.unattributed_share":
            (traced.wall_s - leaves) / traced.wall_s,
        "trace.overhead_share":
            (traced.wall_s - untraced.wall_s) / untraced.wall_s,
    }
    if workload.loop == "batch":
        # The batch runner has no live tickets; its admission waits come
        # from Pass A's iteration hook.
        metrics["service.queue_wait_ms_p50"] = (
            1e3 * measure.percentile(plan.queue_wait_s, 50))
    shutil.rmtree(work_dir / "out_on", ignore_errors=True)
    shutil.rmtree(work_dir / "out_off", ignore_errors=True)
    matched = (len(plan.outputs) == jobs
               and traced.outputs == plan.outputs
               and untraced.outputs == plan.outputs)
    return metrics, matched
