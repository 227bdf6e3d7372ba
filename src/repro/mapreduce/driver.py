"""The simulation driver: glues the event engine, cluster, DFS and a
scheduler into a runnable experiment.

Responsibilities
----------------
* schedule job-arrival events;
* repeatedly ask the scheduler for task launches while slots are free;
* simulate task durations and hand completions back to the scheduler;
* inject faults (task failures, tasktracker outages) and run Hadoop-style
  speculative execution when configured;
* record the per-job timeline (submit / first launch / completion) that the
  metrics layer turns into TET and ART;
* record the run on the simulator's sim-clock tracer: an instant per state
  change and one ``task.<kind>`` span per attempt, whatever its outcome.

The driver is scheduler-agnostic: FIFO, MRShare and S3 all run through the
same loop, so measured differences come from scheduling policy alone.

Fault/speculation flow
----------------------
Every launched attempt is registered in a *work group* keyed by the task it
executes.  A group usually holds one attempt; speculation adds a backup.
The first attempt to finish wins: siblings are killed, their slots freed,
and the scheduler sees exactly one ``on_task_complete``.  A failing attempt
whose group still has a runner is silently dropped (the work is not lost);
a failure that empties its group triggers ``on_task_failed`` so the
scheduler re-enqueues the work, up to ``FaultModel.max_attempts``.
"""

from __future__ import annotations

import abc
import statistics
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..cluster.cluster import Cluster
from ..cluster.node import Node
from ..common.config import ClusterConfig, DfsConfig
from ..common.errors import SchedulingError, SimulationError
from ..common.rng import jittered, make_rng
from ..dfs.block import DfsFile
from ..dfs.namenode import NameNode
from ..dfs.placement import RackAwarePlacement, RoundRobinPlacement
from ..obs.tracer import Tracer
from ..simengine.events import ScheduledEvent
from ..simengine.simulator import Simulator
from .costmodel import CostModel
from .faults import FaultModel, SpeculationConfig
from .job import JobSpec, JobTimeline
from .task import LocalityStats, TaskKind, TaskLaunch


@dataclass
class SchedulerContext:
    """Everything a scheduler may touch, handed over at bind time."""

    sim: Simulator
    cluster: Cluster
    namenode: NameNode
    cost: CostModel
    #: The simulator's sim-clock tracer, the run's one record: schedulers
    #: log decisions as instants (``tracer.event``) and waves as spans.
    tracer: Tracer
    #: Ask the driver to run its dispatch loop now (e.g. after a scheduler-
    #: internal timer fires and new work became available).
    request_dispatch: Callable[[], None]
    #: Tell the driver a job has fully completed.
    job_completed: Callable[[str], None]


class Scheduler(abc.ABC):
    """Interface every scheduling policy implements.

    Lifecycle: the driver calls :meth:`bind` once, then feeds events —
    :meth:`on_job_submitted` for arrivals, :meth:`next_launch` whenever slots
    may be free, :meth:`on_task_complete` when tasks finish.  Schedulers
    never manipulate slots directly; they only *propose* launches and the
    driver validates slot occupancy.
    """

    #: Human-readable policy name for reports ("FIFO", "MRShare-1", "S3").
    name: str = "scheduler"

    def __init__(self) -> None:
        self.context: SchedulerContext | None = None

    def bind(self, context: SchedulerContext) -> None:
        if self.context is not None:
            raise SchedulingError(f"{self.name}: already bound to a driver")
        self.context = context
        self.on_bind()

    def on_bind(self) -> None:
        """Hook for subclasses needing setup after bind (timers etc.)."""

    @property
    def ctx(self) -> SchedulerContext:
        if self.context is None:
            raise SchedulingError(f"{self.name}: scheduler not bound")
        return self.context

    @abc.abstractmethod
    def on_job_submitted(self, job: JobSpec, now: float) -> None:
        """A new job arrived at simulation time ``now``."""

    @abc.abstractmethod
    def next_launch(self, now: float) -> TaskLaunch | None:
        """Return one task to launch now, or None if nothing can run."""

    @abc.abstractmethod
    def on_task_complete(self, launch: TaskLaunch, now: float) -> None:
        """A previously launched task finished."""

    def on_task_failed(self, launch: TaskLaunch, now: float) -> None:
        """A task attempt failed and no sibling is running: re-enqueue it.

        Policies that support fault recovery override this; the default
        refuses, so running a faulty cluster against a non-recovering
        scheduler is an explicit error rather than a silent hang.
        """
        raise SchedulingError(
            f"{self.name}: task {launch.attempt_id} failed but this "
            "scheduler does not implement retry")

    def backup_launch(self, launch: TaskLaunch, node: Node,
                      now: float) -> TaskLaunch | None:
        """Build a speculative backup of ``launch`` on ``node``.

        Policies that support speculation override this; returning ``None``
        declines to speculate on this task.
        """
        return None


@dataclass
class _Attempt:
    """One running attempt of a work group."""

    launch: TaskLaunch
    node: Node
    event: ScheduledEvent
    started: float
    is_backup: bool = False


@dataclass
class _WorkGroup:
    """All running attempts executing the same task."""

    key: str
    kind: TaskKind
    primary: TaskLaunch
    attempts: list[_Attempt] = field(default_factory=list)
    done: bool = False


@dataclass
class SimulationResult:
    """Outcome of one driver run."""

    scheduler_name: str
    timelines: dict[str, JobTimeline]
    #: Everything the run recorded, on the simulation clock: one instant
    #: per state change, one ``task.<kind>`` span per attempt (``outcome``
    #: finish / fail / killed), the schedulers' wave spans.
    tracer: Tracer
    locality: LocalityStats
    events_processed: int
    end_time: float
    #: Fault/speculation accounting.
    task_failures: int = 0
    speculative_launched: int = 0
    speculative_won: int = 0
    #: Per-job completed map-task counts: total, and those shared with at
    #: least one other job (batch size >= 2).
    job_map_tasks: dict[str, int] = field(default_factory=dict)
    job_shared_map_tasks: dict[str, int] = field(default_factory=dict)

    def timeline(self, job_id: str) -> JobTimeline:
        try:
            return self.timelines[job_id]
        except KeyError:
            raise SchedulingError(f"unknown job {job_id!r}") from None


def _task_key(attempt_id: str) -> str:
    """The task identity of an attempt id (strips the attempt suffix)."""
    return attempt_id.rsplit(".attempt_", 1)[0]


class SimulationDriver:
    """Runs one scheduler over one cluster and a set of timed job arrivals."""

    def __init__(self, scheduler: Scheduler, *,
                 cluster_config: ClusterConfig | None = None,
                 dfs_config: DfsConfig | None = None,
                 cost_model: CostModel | None = None,
                 fault_model: FaultModel | None = None,
                 speculation: SpeculationConfig | None = None,
                 dispatch_mode: str = "event",
                 heartbeat_interval_s: float = 3.0,
                 tasks_per_heartbeat: int = 2,
                 jitter_seed: int | None = None) -> None:
        if dispatch_mode not in ("event", "heartbeat"):
            raise SimulationError(
                f"dispatch_mode must be 'event' or 'heartbeat', "
                f"got {dispatch_mode!r}")
        if heartbeat_interval_s <= 0:
            raise SimulationError("heartbeat_interval_s must be positive")
        if tasks_per_heartbeat < 1:
            raise SimulationError("tasks_per_heartbeat must be >= 1")
        self.cluster_config = cluster_config or ClusterConfig()
        self.dfs_config = dfs_config or DfsConfig()
        self.cost = cost_model or CostModel()
        self.faults = fault_model
        self.speculation = speculation or SpeculationConfig()
        #: "event" assigns tasks the instant slots free (an idealised
        #: JobTracker); "heartbeat" assigns only when a node heartbeats,
        #: at most ``tasks_per_heartbeat`` tasks per beat — Hadoop 0.20's
        #: behaviour, whose dispatch latency the event mode folds into
        #: ``JobProfile.task_startup_s`` instead.
        self.dispatch_mode = dispatch_mode
        self.heartbeat_interval_s = heartbeat_interval_s
        self.tasks_per_heartbeat = tasks_per_heartbeat
        self._heartbeats_running = False
        self._hb_generation = 0
        #: Task-duration jitter: when the cost model's ``duration_jitter``
        #: is non-zero, every attempt's duration is perturbed by Gaussian
        #: noise with that relative sigma (seeded; deterministic per seed).
        self._jitter_rng = (make_rng(jitter_seed)
                            if self.cost.duration_jitter > 0 else None)
        self.sim = Simulator()
        self.tracer = self.sim.tracer
        self.cluster = Cluster.from_config(self.cluster_config)
        # Replication 1 (the paper's setting) spreads blocks round-robin —
        # exactly 4 GB/node for the 160 GB corpus; with replication > 1 the
        # HDFS-style rack-aware policy places the extra replicas.
        if self.dfs_config.replication > 1:
            placement = RackAwarePlacement(self.cluster.node_ids,
                                           self.cluster.topology)
        else:
            placement = RoundRobinPlacement(self.cluster.node_ids)
        self.namenode = NameNode(self.dfs_config, placement)
        self.scheduler = scheduler
        self.locality = LocalityStats()
        self._timelines: dict[str, JobTimeline] = {}
        self._submissions: list[tuple[float, JobSpec]] = []
        self._dispatch_scheduled = False
        self._started = False
        self._groups: dict[str, _WorkGroup] = {}
        self._retries: dict[str, int] = {}
        self._completed_map_durations: list[float] = []
        self._spec_ticker_running = False
        self._job_map_tasks: dict[str, int] = {}
        self._job_shared_map_tasks: dict[str, int] = {}
        self.task_failures = 0
        self.speculative_launched = 0
        self.speculative_won = 0
        scheduler.bind(SchedulerContext(
            sim=self.sim,
            cluster=self.cluster,
            namenode=self.namenode,
            cost=self.cost,
            tracer=self.tracer,
            request_dispatch=self._request_dispatch,
            job_completed=self._job_completed,
        ))

    # -------------------------------------------------------------- plumbing
    def register_file(self, name: str, size_mb: float) -> DfsFile:
        """Create the shared input file in the simulated DFS."""
        return self.namenode.create_file(name, size_mb)

    def submit(self, job: JobSpec, at: float) -> None:
        """Register a job arrival at simulation time ``at`` (before run())."""
        if self._started:
            raise SimulationError("cannot submit after run() started")
        if at < 0:
            raise SimulationError(f"negative arrival time {at}")
        if job.job_id in self._timelines:
            raise SimulationError(f"duplicate job id {job.job_id}")
        if not self.namenode.exists(job.file_name):
            raise SimulationError(
                f"{job.job_id}: input file {job.file_name!r} not registered")
        self._timelines[job.job_id] = JobTimeline(job_id=job.job_id, submitted=at)
        self._submissions.append((at, job))

    def submit_all(self, jobs: Sequence[JobSpec], arrivals: Sequence[float]) -> None:
        """Submit ``jobs[i]`` at ``arrivals[i]``."""
        if len(jobs) != len(arrivals):
            raise SimulationError("jobs and arrivals must have equal length")
        for job, at in zip(jobs, arrivals):
            self.submit(job, at)

    # ------------------------------------------------------------ event flow
    def _request_dispatch(self) -> None:
        """Coalesce dispatch requests into a single zero-delay event.

        In heartbeat mode there is no instant dispatch: the request merely
        (re)starts the heartbeat tickers and assignment waits for the next
        beat, exposing the real dispatch latency.
        """
        if self.dispatch_mode == "heartbeat":
            self._start_heartbeats()
            return
        if self._dispatch_scheduled:
            return
        self._dispatch_scheduled = True

        def run_dispatch(now: float) -> None:
            self._dispatch_scheduled = False
            self._dispatch(now)

        # priority 10: dispatch after all same-instant arrivals/completions.
        self.sim.at(self.sim.now, run_dispatch, priority=10, label="dispatch")

    def _dispatch(self, now: float) -> None:
        while True:
            launch = self.scheduler.next_launch(now)
            if launch is None:
                return
            self._execute(launch, now)

    # ------------------------------------------------------------- execution
    def _execute(self, launch: TaskLaunch, now: float, *,
                 is_backup: bool = False, group: _WorkGroup | None = None) -> None:
        node = self.cluster.node(launch.node_id)
        if node.offline:
            raise SchedulingError(
                f"{launch.attempt_id}: scheduled on offline node {node.node_id}")
        if launch.kind is TaskKind.MAP:
            node.acquire_map_slot(launch.attempt_id)
        else:
            node.acquire_reduce_slot(launch.attempt_id)
        if self._jitter_rng is not None and launch.duration > 0:
            launch.duration = jittered(self._jitter_rng, launch.duration,
                                       self.cost.duration_jitter)
        launch.started_at = now
        self.locality.observe(launch)
        for job_id in launch.job_ids:
            timeline = self._timelines.get(job_id)
            if timeline is not None and timeline.first_launch is None:
                timeline.first_launch = now
        self.tracer.event(f"task.start.{launch.kind.value}",
                          subject=launch.attempt_id, node=launch.node_id,
                          duration=round(launch.duration, 3),
                          jobs=len(launch.job_ids), block=launch.block_index,
                          backup=is_backup)

        key = _task_key(launch.attempt_id)
        if group is None:
            group = self._groups.get(key)
            if group is None or group.done:
                group = _WorkGroup(key=key, kind=launch.kind, primary=launch)
                self._groups[key] = group

        failure_fraction = self.faults.sample_failure() if self.faults else None
        if failure_fraction is not None:
            run_for = max(launch.duration * failure_fraction, 1e-9)
            event = self.sim.after(
                run_for, lambda t: self._attempt_failed(group, launch, t),
                label=f"fail:{launch.attempt_id}")
        else:
            event = self.sim.after(
                launch.duration,
                lambda t: self._attempt_finished(group, launch, t),
                label=launch.attempt_id)
        group.attempts.append(_Attempt(launch=launch, node=node, event=event,
                                       started=now, is_backup=is_backup))

    def _end_attempt(self, attempt: _Attempt, outcome: str) -> None:
        """Free the attempt's slot and record how it ended, at ``sim.now``:
        the ``task.<outcome>.<kind>`` instant plus the ``task.<kind>`` span
        of its slot occupancy (every attempt gets exactly one)."""
        launch = attempt.launch
        kind = launch.kind.value
        if launch.kind is TaskKind.MAP:
            attempt.node.release_map_slot(launch.attempt_id)
        else:
            attempt.node.release_reduce_slot(launch.attempt_id)
        self.tracer.event(f"task.{outcome}.{kind}", subject=launch.attempt_id,
                          node=launch.node_id)
        self.tracer.span_at(
            f"task.{kind}", attempt.started, self.sim.now,
            lane=launch.node_id, subject=launch.attempt_id,
            jobs=len(launch.job_ids), block=launch.block_index,
            outcome=outcome)

    def _attempt_finished(self, group: _WorkGroup, launch: TaskLaunch,
                          now: float) -> None:
        if group.done:
            raise SimulationError(
                f"{launch.attempt_id}: completion after its group finished")
        group.done = True
        winner: _Attempt | None = None
        for attempt in group.attempts:
            if attempt.launch is launch:
                winner = attempt
            else:
                # Kill the losing sibling (Hadoop kills the slower attempt).
                attempt.event.cancel()
                self._end_attempt(attempt, "killed")
        if winner is None:
            raise SimulationError(f"{launch.attempt_id}: winner not in group")
        if winner.is_backup:
            self.speculative_won += 1
        group.attempts.clear()
        self._groups.pop(group.key, None)
        launch.finished_at = now
        if launch.kind is TaskKind.MAP:
            self._completed_map_durations.append(launch.duration)
            shared = launch.batch_size >= 2
            for job_id in launch.job_ids:
                self._job_map_tasks[job_id] = \
                    self._job_map_tasks.get(job_id, 0) + 1
                if shared:
                    self._job_shared_map_tasks[job_id] = \
                        self._job_shared_map_tasks.get(job_id, 0) + 1
        self._end_attempt(winner, "finish")
        self.scheduler.on_task_complete(launch, now)
        self._request_dispatch()

    def _attempt_failed(self, group: _WorkGroup, launch: TaskLaunch,
                        now: float) -> None:
        self.task_failures += 1
        attempt = next(a for a in group.attempts if a.launch is launch)
        group.attempts.remove(attempt)
        self._end_attempt(attempt, "fail")
        if group.attempts:
            return  # a sibling is still running; the work is not lost
        self._groups.pop(group.key, None)
        retries = self._retries.get(group.key, 0) + 1
        self._retries[group.key] = retries
        max_attempts = self.faults.max_attempts if self.faults else 4
        if retries >= max_attempts:
            raise SimulationError(
                f"task {group.key} failed {retries} times "
                f"(max_attempts={max_attempts}); job would fail in Hadoop")
        self.scheduler.on_task_failed(launch, now)
        self._request_dispatch()

    # ------------------------------------------------------------ heartbeats
    def _all_jobs_done(self) -> bool:
        return all(t.is_complete for t in self._timelines.values())

    def _start_heartbeats(self) -> None:
        """Start one staggered periodic ticker per node (idempotent).

        A generation counter invalidates stale tickers: if the previous
        generation is still winding down when a new arrival restarts the
        heartbeats, the old tickers see a newer generation and stop instead
        of double-beating their nodes.
        """
        if self._heartbeats_running:
            return
        self._heartbeats_running = True
        self._hb_generation += 1
        generation = self._hb_generation
        interval = self.heartbeat_interval_s
        nodes = self.cluster.nodes()
        for index, node in enumerate(nodes):
            stagger = interval * (index + 1) / len(nodes)

            def beat(now: float, node: Node = node) -> bool:
                if generation != self._hb_generation:
                    return True  # superseded by a newer generation
                if self._all_jobs_done():
                    self._heartbeats_running = False
                    return True  # stop; restarted by the next arrival
                self._heartbeat(node, now)
                return False

            self.sim.every(interval, beat, start_delay=stagger,
                           label=f"hb:{node.node_id}")

    def _heartbeat(self, node: Node, now: float) -> None:
        """Offer work to exactly one node, as its heartbeat would."""
        if node.offline:
            return
        for other in self.cluster:
            other.accepting = other is node
        try:
            for _ in range(self.tasks_per_heartbeat):
                launch = self.scheduler.next_launch(now)
                if launch is None:
                    break
                if launch.node_id != node.node_id:
                    raise SchedulingError(
                        f"{launch.attempt_id}: scheduler picked "
                        f"{launch.node_id} during {node.node_id}'s heartbeat")
                self._execute(launch, now)
        finally:
            for other in self.cluster:
                other.accepting = True

    # --------------------------------------------------------------- outages
    def _schedule_outages(self) -> None:
        if self.faults is None:
            return
        for outage in self.faults.outages:
            if outage.node_id not in self.cluster:
                raise SimulationError(
                    f"outage for unknown node {outage.node_id!r}")
            self.sim.at(outage.start,
                        lambda t, o=outage: self._outage_start(o, t),
                        label=f"outage:{outage.node_id}")
            self.sim.at(outage.end,
                        lambda t, o=outage: self._outage_end(o, t),
                        label=f"recover:{outage.node_id}")

    def _outage_start(self, outage, now: float) -> None:
        node = self.cluster.node(outage.node_id)
        node.offline = True
        self.tracer.event("node.offline", subject=node.node_id)
        # Fail every attempt running on the node.
        for group in list(self._groups.values()):
            for attempt in list(group.attempts):
                if attempt.node is node:
                    attempt.event.cancel()
                    self._attempt_failed(group, attempt.launch, now)

    def _outage_end(self, outage, now: float) -> None:
        node = self.cluster.node(outage.node_id)
        node.offline = False
        self.tracer.event("node.online", subject=node.node_id)
        self._request_dispatch()

    # ------------------------------------------------------------ speculation
    def _start_speculation_ticker(self) -> None:
        if not self.speculation.enabled or self._spec_ticker_running:
            return
        self._spec_ticker_running = True
        self.sim.every(self.speculation.check_interval_s,
                       self._speculation_check, label="speculation")

    def _speculation_check(self, now: float) -> bool:
        if all(t.is_complete for t in self._timelines.values()):
            self._spec_ticker_running = False
            return True  # stop the ticker; restarted on the next arrival
        if len(self._completed_map_durations) < self.speculation.min_completed:
            return False
        median = statistics.median(self._completed_map_durations)
        threshold = self.speculation.slowness_factor * median
        for group in list(self._groups.values()):
            if group.kind is not TaskKind.MAP or group.done:
                continue
            if len(group.attempts) != 1:
                continue  # already speculated (or about to complete)
            attempt = group.attempts[0]
            if now - attempt.started <= threshold:
                continue
            free = self.cluster.nodes_with_free_map_slot(include_excluded=False)
            candidates = [n for n in free if n is not attempt.node]
            if not candidates:
                return False  # no capacity anywhere; try next tick
            backup = self.scheduler.backup_launch(attempt.launch,
                                                  candidates[0], now)
            if backup is None:
                continue
            # Hadoop's economics: only speculate when the backup's estimated
            # completion beats the running attempt's.  With linear progress
            # the progress-rate estimate equals the true remaining time.
            primary_finish = attempt.started + attempt.launch.duration
            if now + backup.duration >= primary_finish:
                continue
            self.speculative_launched += 1
            self.tracer.event("task.speculate",
                              subject=attempt.launch.attempt_id,
                              backup=backup.attempt_id, node=backup.node_id)
            self._execute(backup, now, is_backup=True, group=group)
        return False

    def _job_completed(self, job_id: str) -> None:
        timeline = self._timelines.get(job_id)
        if timeline is None:
            raise SchedulingError(f"completion for unknown job {job_id!r}")
        if timeline.completed is not None:
            raise SchedulingError(f"job {job_id!r} completed twice")
        timeline.completed = self.sim.now
        self.tracer.event("job.complete", subject=job_id)

    # ------------------------------------------------------------------ run
    def run(self) -> SimulationResult:
        """Execute the simulation to completion and return the result."""
        if self._started:
            raise SimulationError("driver already ran")
        self._started = True
        self._schedule_outages()
        for at, job in sorted(self._submissions, key=lambda pair: pair[0]):
            def arrive(now: float, job: JobSpec = job) -> None:
                self.tracer.event("job.submit", subject=job.job_id,
                                  file=job.file_name,
                                  profile=job.profile.name)
                self.scheduler.on_job_submitted(job, now)
                self._start_speculation_ticker()
                self._request_dispatch()

            self.sim.at(at, arrive, priority=0, label=f"arrive:{job.job_id}")
        self.sim.run()
        incomplete = [j for j, t in self._timelines.items() if not t.is_complete]
        if incomplete:
            raise SimulationError(
                f"simulation drained with incomplete jobs: {incomplete}; "
                "scheduler deadlock or missing completion notification")
        return SimulationResult(
            scheduler_name=self.scheduler.name,
            timelines=dict(self._timelines),
            tracer=self.tracer,
            locality=self.locality,
            events_processed=self.sim.events_processed,
            end_time=self.sim.now,
            task_failures=self.task_failures,
            speculative_launched=self.speculative_launched,
            speculative_won=self.speculative_won,
            job_map_tasks=dict(self._job_map_tasks),
            job_shared_map_tasks=dict(self._job_shared_map_tasks),
        )
