"""A simulated run survives its JSONL archive: same events, same summary,
still valid — a trace validates wherever it came from."""

from repro.metrics.validate import validate_trace
from repro.obs import export_jsonl, load_events, summarize
from repro.obs.export import event_records, tracers_from_records


def test_real_run_round_trip(tmp_path, small_cluster_config, small_dfs_config,
                             fast_profile, job_factory):
    from repro.mapreduce.costmodel import CostModel
    from repro.mapreduce.driver import SimulationDriver
    from repro.schedulers.s3 import S3Scheduler

    driver = SimulationDriver(S3Scheduler(),
                              cluster_config=small_cluster_config,
                              dfs_config=small_dfs_config,
                              cost_model=CostModel(job_submit_overhead_s=0.0,
                                                   subjob_overhead_s=0.0))
    driver.register_file("f", 64.0 * 16)
    driver.submit_all(job_factory(fast_profile, 2), [0.0, 2.0])
    result = driver.run()
    path = tmp_path / "run.jsonl"
    assert export_jsonl(path, [result.tracer]) == len(result.tracer)
    loaded = load_events(path)
    (rebuilt,) = tracers_from_records(loaded)
    assert rebuilt.name == result.tracer.name
    assert rebuilt.events() == result.tracer.events()
    assert summarize(loaded) == summarize(list(event_records([result.tracer])))
    validate_trace(rebuilt, small_cluster_config).raise_if_invalid()
