"""The per-file circular scan loop.

One :class:`ScanLoop` exists per input file.  It owns the scan pointer, the
active job list and the construction of *iterations* — the merged sub-jobs
of Algorithm 1.  Building an iteration is where sub-job **alignment**
happens: jobs admitted since the previous build get ``start_block`` set to
the current pointer, so their first sub-job lines up with the next segment
to be processed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...analysis.racecheck import race_checked
from ...common.errors import SchedulingError
from ...dfs.block import DfsFile
from ...mapreduce.job import JobSpec
from ...mapreduce.profile import JobProfile
from .state import S3JobState


@dataclass
class Iteration:
    """One merged sub-job's plan: a chunk of blocks plus the jobs sharing it.

    ``block_jobs`` maps each block index to the ids of the jobs whose scan
    needs that block — the per-block batch whose size drives the shared-scan
    cost model; blocks needed by the same jobs share one tuple, usually
    ``participants`` itself.  A job takes a shorter prefix of the chunk
    only when its scan ends inside it, which only a chunk size that
    varies while it scans brings about (the simulator's partial
    initialisation of a sub-job).  Jobs
    finishing their scan inside this iteration are listed in
    ``finishing_jobs``; they complete when this iteration's merged reduce
    phase ends.  The plan carries no slot state: the simulator's S3
    scheduler tracks its tasks in a dispatch record of its own.
    """

    iteration_id: str
    file_name: str
    chunk: tuple[int, ...]
    block_jobs: dict[int, tuple[str, ...]]
    profiles: dict[str, JobProfile]
    participants: tuple[str, ...]
    finishing_jobs: tuple[str, ...]
    file_fraction: float

    def __post_init__(self) -> None:
        if not self.chunk:
            raise SchedulingError(f"{self.iteration_id}: empty chunk")
        if self.block_jobs.keys() != set(self.chunk):
            raise SchedulingError(f"{self.iteration_id}: block/job map mismatch")

    @property
    def batch_size(self) -> int:
        """Number of distinct jobs sharing this iteration."""
        return len(self.participants)

    def profile_for(self, block_index: int) -> JobProfile:
        """Cost profile for one block: the priciest participant's profile."""
        jobs = self.block_jobs[block_index]
        return max((self.profiles[j] for j in jobs),
                   key=lambda p: (p.map_cpu_s_per_mb, p.reduce_total_s))

    @property
    def profile(self) -> JobProfile:
        """Profile used for the merged reduce phase."""
        return max(self.profiles.values(),
                   key=lambda p: (p.reduce_total_s, p.map_cpu_s_per_mb))


@race_checked(fields=("pointer", "active", "waiting", "last_admitted",
                      "_iteration_counter", "_riders"),
              guard="SchedulerService._cond")
class ScanLoop:
    """Circular scan state for one file (pointer + active jobs).

    Its iterations are scan plans that both clocks share — the
    simulator's S3 scheduler and the local runtime's scan core — so they
    carry no slot state; each executor keeps its own.

    Owns no lock: the simulator drives it single-threaded, the batch
    runner's per-run scan core likewise, and the scheduler service
    serialises every call into its core's loop under its own condition
    variable — a cross-object guard the ``@race_checked``
    instrumentation verifies at runtime (``REPRO_RACECHECK=1``).
    """

    def __init__(self, dfs_file: DfsFile) -> None:
        self.dfs_file = dfs_file
        self.pointer = 0
        #: Jobs scanning, in admit order; replaced, never changed in place.
        self.active: list[S3JobState] = []
        #: Jobs waiting for admission (only when max_jobs_per_iteration caps).
        self.waiting: list[S3JobState] = []
        #: Job ids aligned to the pointer by the most recent build —
        #: the scheduler turns these into ``s3.align`` trace events.
        self.last_admitted: tuple[str, ...] = ()
        self._iteration_counter = 0
        #: ``(active, participants, profiles)``, shared by every build
        #: while ``active`` is the same list.
        self._riders: tuple[list[S3JobState], tuple[str, ...],
                            dict[str, JobProfile]] | None = None

    @property
    def num_blocks(self) -> int:
        return self.dfs_file.num_blocks

    def has_work(self) -> bool:
        return bool(self.active or self.waiting)

    def add_job(self, spec: JobSpec, now: float) -> S3JobState:
        """Register a newly submitted job; admission happens at next build."""
        if self.find(spec.job_id) is not None:
            raise SchedulingError(
                f"{spec.job_id}: already queued on {self.dfs_file.name}; "
                "job ids must be unique while a job is live")
        state = S3JobState(spec=spec, total_blocks=self.num_blocks,
                           arrival_time=now)
        self.waiting.append(state)
        return state

    def find(self, job_id: str) -> S3JobState | None:
        """The live (waiting or active) state for ``job_id``, if any."""
        for job in self.active:
            if job.job_id == job_id:
                return job
        for job in self.waiting:
            if job.job_id == job_id:
                return job
        return None

    def cancel(self, job_id: str) -> S3JobState | None:
        """Detach a job from the loop (the removal path cancellation needs).

        Works in either pre-admission (``waiting``) or mid-scan
        (``active``) state; the returned state is marked terminal so it can
        never be re-admitted or advanced.  Detaching never perturbs the
        scan pointer or the other jobs' coverage — the next
        :meth:`build_iteration` simply no longer includes the job, and
        :meth:`has_work` goes false once nothing else is queued (no
        stranded ``waiting`` entries, no permanently-true ``has_work``).
        Returns ``None`` when the job is not live on this loop.
        """
        state = self.find(job_id)
        if state is None:
            return None
        state.cancel()
        self.active = [job for job in self.active if job.job_id != job_id]
        self.waiting = [job for job in self.waiting if job.job_id != job_id]
        self.last_admitted = tuple(j for j in self.last_admitted
                                   if j != job_id)
        return state

    # ---------------------------------------------------------------- build
    def build_iteration(self, chunk_size: int, *,
                        max_jobs: int | None = None) -> Iteration | None:
        """Construct (and commit) the next merged sub-job.

        Advances the pointer and each participant's coverage immediately —
        the iteration object is a self-contained scan plan.  Returns
        ``None`` when no job needs scanning.
        """
        if chunk_size <= 0:
            raise SchedulingError(f"chunk_size must be positive, got {chunk_size}")
        self._admit_waiting(max_jobs)
        if not self.active:
            return None
        active = self.active
        if self._riders is None or self._riders[0] is not active:
            self._riders = (active, tuple(job.job_id for job in active),
                            {job.job_id: job.spec.profile for job in active})
        _, participants, profiles = self._riders
        n = self.num_blocks
        covered = [job.covered for job in active]
        most = max(covered)
        # Never wrap inside a chunk: segment boundaries stay aligned with the
        # file end, as in the fixed-segment grid (the last segment is ragged).
        # Never scan blocks nobody needs (every job needs all n blocks).
        chunk_len = min(chunk_size, n - self.pointer, n - min(covered))
        chunk = tuple(range(self.pointer, self.pointer + chunk_len))
        if n - most >= chunk_len:  # every job takes the whole chunk
            for job, done in zip(active, covered):
                job.covered = done + chunk_len
            block_jobs = dict.fromkeys(chunk, participants)
        else:
            takes = [min(chunk_len, n - done) for done in covered]
            for job, take in zip(active, takes):
                if take <= 0:
                    raise SchedulingError(
                        f"{job.job_id}: active job with nothing remaining")
                job.advance(take)
            # Takes are prefixes of the chunk: one riders tuple per take.
            riders = participants
            block_jobs = {}
            for offset, block in enumerate(chunk):
                if offset in takes:
                    riders = tuple(job_id for job_id, take
                                   in zip(participants, takes) if take > offset)
                block_jobs[block] = riders
        finishing: tuple[str, ...] = ()
        if n - most <= chunk_len:  # some job's scan ends in this chunk
            finishing = tuple(job.job_id for job in active if job.covered == n)
            self.active = [job for job in active if job.covered < n]
        self.pointer = (self.pointer + chunk_len) % n
        self._iteration_counter += 1
        return Iteration(
            iteration_id=f"{self.dfs_file.name}:iter_{self._iteration_counter:05d}",
            file_name=self.dfs_file.name,
            chunk=chunk,
            block_jobs=block_jobs,
            profiles=profiles,
            participants=participants,
            finishing_jobs=finishing,
            file_fraction=chunk_len / n,
        )

    def _admit_waiting(self, max_jobs: int | None) -> None:
        """Admit waiting jobs at the current pointer, respecting the cap.

        Jobs already scanning are never paused (that would break the
        contiguous-coverage invariant); the cap only gates *new* admissions.
        Among waiting jobs, higher priority first, then arrival order.
        """
        self.last_admitted = ()
        if not self.waiting:
            return
        capacity = None if max_jobs is None else max(0, max_jobs - len(self.active))
        candidates = sorted(
            self.waiting,
            key=lambda job: (-job.spec.priority, job.arrival_time))
        admitted: list[S3JobState] = []
        for job in candidates:
            if capacity is not None and len(admitted) >= capacity:
                break
            job.admit(self.pointer)
            admitted.append(job)
        if admitted:
            admitted_ids = {job.job_id for job in admitted}
            self.waiting = [j for j in self.waiting if j.job_id not in admitted_ids]
            self.active = self.active + admitted
            self.last_admitted = tuple(job.job_id for job in admitted)
