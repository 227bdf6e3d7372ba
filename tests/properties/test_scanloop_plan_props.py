"""Property: ``ScanLoop.build_iteration`` plans exactly what the plain
per-(block, job) loop plans.

The reference below is the planner written the obvious way: every
active job appends its id to each block of its take, one block at a
time, and every block's rider tuple is built from its own list.  For
any sequence of submissions (with priorities), cancellations (of
waiting, scanning or unknown jobs) and builds (any chunk size, with or
without an admission cap), over a file whose last chunk is ragged, two
loops fed the same moves — one planning with ``build_iteration``, one
with the reference — must agree on every ``Iteration`` field, the
pointer, ``last_admitted``, the waiting and active lists, and each
job's start block, coverage and terminal flag.

The moves vary the chunk size between builds, the only way a job takes
a partial prefix of a chunk, so the reference checks the loop's
per-block prefix path as well as its whole-chunk path.  At a fixed
chunk size every take is the whole chunk and every block shares the
participants tuple itself.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import DfsConfig
from repro.dfs.namenode import NameNode
from repro.dfs.placement import RoundRobinPlacement
from repro.mapreduce.job import JobSpec
from repro.mapreduce.profile import JobProfile, normal_wordcount
from repro.schedulers.s3.scanloop import Iteration, ScanLoop

#: Two profiles, so ``profiles`` and ``profile_for`` see a mix.
PROFILES = (normal_wordcount(),
            JobProfile(name="heavy", scan_rate_mb_s=64.0,
                       map_cpu_s_per_mb=0.1, task_startup_s=0.1,
                       map_share_beta=0.1, reduce_total_s=9.0,
                       reduce_share_gamma=0.05))

#: Builds outnumber the other moves, so jobs finish mid-chunk: a take
#: ends inside a chunk only when chunk sizes vary while the job scans.
build = st.tuples(st.just("build"), st.integers(1, 6),
                  st.none() | st.integers(1, 4))
moves = st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(-1, 2), st.integers(0, 1)),
    st.tuples(st.just("cancel"), st.integers(0, 12)),
    build, build, build,
), min_size=20, max_size=80)


def reference_build(loop: ScanLoop, chunk_size: int,
                    max_jobs: int | None) -> Iteration | None:
    """The per-(block, job) planner (admission is the loop's own)."""
    loop._admit_waiting(max_jobs)
    if not loop.active:
        return None
    n = loop.num_blocks
    chunk_len = min(chunk_size, n - loop.pointer)
    chunk_len = min(chunk_len, max(job.remaining for job in loop.active))
    chunk = tuple(range(loop.pointer, loop.pointer + chunk_len))
    block_jobs: dict[int, list[str]] = {b: [] for b in chunk}
    profiles = {}
    finishing = []
    participants = []
    for job in loop.active:
        take = min(chunk_len, job.remaining)
        assert take > 0
        for offset in range(take):
            block_jobs[loop.pointer + offset].append(job.job_id)
        participants.append(job.job_id)
        profiles[job.job_id] = job.spec.profile
        job.advance(take)
        if not job.remaining:
            finishing.append(job.job_id)
    loop.active = [job for job in loop.active if job.remaining]
    loop.pointer = (loop.pointer + chunk_len) % n
    loop._iteration_counter += 1
    return Iteration(
        iteration_id=f"{loop.dfs_file.name}:iter_{loop._iteration_counter:05d}",
        file_name=loop.dfs_file.name,
        chunk=chunk,
        block_jobs={b: tuple(jobs) for b, jobs in block_jobs.items()},
        profiles=profiles,
        participants=tuple(participants),
        finishing_jobs=tuple(finishing),
        file_fraction=chunk_len / n,
    )


def _loop(num_blocks: int) -> ScanLoop:
    namenode = NameNode(DfsConfig(block_size_mb=64.0),
                        RoundRobinPlacement(["n0", "n1"]))
    return ScanLoop(namenode.create_file("f", 64.0 * num_blocks))


def _state(loop: ScanLoop):
    jobs = loop.active + loop.waiting
    return (loop.pointer, loop.last_admitted,
            [job.job_id for job in loop.active],
            [job.job_id for job in loop.waiting],
            {job.job_id: (job.start_block, job.covered, job.cancelled)
             for job in jobs})


@given(num_blocks=st.integers(1, 13), moves=moves)
@settings(max_examples=150, deadline=None)
def test_build_iteration_matches_per_block_reference(num_blocks, moves):
    planned, reference = _loop(num_blocks), _loop(num_blocks)
    submitted = 0
    built = 0
    for move in moves:
        if move[0] == "add":
            _, priority, profile = move
            for loop in (planned, reference):
                loop.add_job(JobSpec(job_id=f"j{submitted}", file_name="f",
                                     profile=PROFILES[profile],
                                     priority=priority),
                             float(built))
            submitted += 1
        elif move[0] == "cancel":
            job_id = f"j{move[1]}"
            a, b = planned.cancel(job_id), reference.cancel(job_id)
            assert (a is None) == (b is None)
        else:
            _, chunk_size, max_jobs = move
            got = planned.build_iteration(chunk_size, max_jobs=max_jobs)
            want = reference_build(reference, chunk_size, max_jobs)
            assert got == want
            if got is not None:
                built += 1
                # Every block lists its riders in participant order.
                for block in got.chunk:
                    riders = got.block_jobs[block]
                    assert riders == tuple(
                        j for j in got.participants if j in riders)
        assert _state(planned) == _state(reference)


@given(num_blocks=st.integers(1, 13), chunk_size=st.integers(1, 6),
       moves=moves)
@settings(max_examples=100, deadline=None)
def test_at_a_fixed_chunk_size_every_block_shares_the_participants(
        num_blocks, chunk_size, moves):
    loop = _loop(num_blocks)
    submitted = 0
    for move in moves:
        if move[0] == "add":
            loop.add_job(JobSpec(job_id=f"j{submitted}", file_name="f",
                                 profile=PROFILES[move[2]],
                                 priority=move[1]), 0.0)
            submitted += 1
        elif move[0] == "cancel":
            loop.cancel(f"j{move[1]}")
        else:
            iteration = loop.build_iteration(chunk_size, max_jobs=move[2])
            if iteration is not None:
                assert all(riders is iteration.participants
                           for riders in iteration.block_jobs.values())
