"""Regression: the admission cap must never strand waiting jobs (liveness).

``S3Scheduler._launch_iteration`` gives up silently when
``ScanLoop.build_iteration`` returns ``None`` — which is exactly what
happens when the admission cap defers every waiting job.  Before the fix,
the only re-arm paths were map completion and job arrival; when the cap is
freed by a *reduce-side* job completion (the last event the system will
ever see), waiting jobs were stranded forever and the driver drained with
incomplete jobs.

The stall needs the strictest cap semantics — a job holds its admission
slot until it *fully* completes, reduce included — which these tests pin
onto the ``build_iteration`` seam: while any merged reduce is in flight
and the loop has no scanning job, every waiting job is deferred, exactly
as ``ScanLoop._admit_waiting`` defers when the cap is exhausted.  The
scheduler must recover by re-arming when the job completion frees the cap.
"""

from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.driver import SimulationDriver
from repro.schedulers.s3 import S3Config, S3Scheduler
from repro.schedulers.s3.scanloop import ScanLoop


def _strict_cap(scheduler, monkeypatch):
    """Make the cap outlast the scan: defer all admissions while a merged
    reduce is still running and no job is actively scanning."""
    original_build = ScanLoop.build_iteration

    def strict_cap_build(self, chunk_size, *, max_jobs=None):
        if scheduler._reducing and not self.active:
            return None  # cap exhausted: every waiting job deferred
        return original_build(self, chunk_size, max_jobs=max_jobs)

    monkeypatch.setattr(ScanLoop, "build_iteration", strict_cap_build)


def _capped_driver(small_cluster_config, small_dfs_config, *, blocks=8):
    scheduler = S3Scheduler(S3Config(max_jobs_per_iteration=1))
    driver = SimulationDriver(
        scheduler, cluster_config=small_cluster_config,
        dfs_config=small_dfs_config,
        cost_model=CostModel(job_submit_overhead_s=0.0,
                             subjob_overhead_s=0.0))
    driver.register_file("f", 64.0 * blocks)
    return scheduler, driver


def test_cap_freed_by_job_completion_readmits_waiting_job(
        small_cluster_config, small_dfs_config, fast_profile, job_factory,
        monkeypatch):
    """cap=1, two jobs on one file: the second must complete, not hang."""
    scheduler, driver = _capped_driver(small_cluster_config, small_dfs_config)
    _strict_cap(scheduler, monkeypatch)
    driver.submit_all(job_factory(fast_profile, 2), [0.0, 0.0])
    result = driver.run()  # pre-fix: SimulationError (j1 stranded forever)
    assert all(t.is_complete for t in result.timelines.values())
    # Strictly sequential under the cap: j1 launches only after j0 is done.
    assert (result.timeline("j1").first_launch
            >= result.timeline("j0").completed)


def test_cap_stall_recovery_chains_across_many_jobs(
        small_cluster_config, small_dfs_config, fast_profile, job_factory,
        monkeypatch):
    """Every completion must re-arm in turn: three stranded jobs drain."""
    scheduler, driver = _capped_driver(small_cluster_config, small_dfs_config)
    _strict_cap(scheduler, monkeypatch)
    driver.submit_all(job_factory(fast_profile, 4),
                      [0.0, 0.0, 0.0, 0.0])
    result = driver.run()
    assert all(t.is_complete for t in result.timelines.values())
    completions = sorted(result.timelines[f"j{i}"].completed
                         for i in range(4))
    assert completions == sorted(set(completions)), \
        "capped jobs must complete one after another"


def test_without_injected_cap_semantics_no_stall_and_no_overlap(
        small_cluster_config, small_dfs_config, fast_profile, job_factory):
    """The stock cap (freed at scan completion) was already live; the fix
    must not change its scheduling outcome."""
    scheduler, driver = _capped_driver(small_cluster_config, small_dfs_config,
                                       blocks=16)
    driver.submit_all(job_factory(fast_profile, 2), [0.0, 0.0])
    result = driver.run()
    assert all(t.is_complete for t in result.timelines.values())
    launches = result.tracer.instants(name="s3.subjob.launch")
    assert all(r.args["jobs"] == 1 for r in launches)
