"""A simulated run survives its Chrome trace export: the same events come
back, and the run's trace is valid."""

import json

import pytest

from repro.metrics.validate import validate_trace
from repro.obs import export_chrome, load_events
from repro.obs.export import event_records


def _identity(record):
    """Everything an event carries except its timestamps."""
    return (record["tracer"], record["ph"], record["name"], record["lane"],
            record["subject"], json.dumps(record["args"], sort_keys=True))


def _ordered(records):
    return sorted(records, key=lambda r: (_identity(r), r["ts"]))


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
    path = tmp_path / "run.trace.json"
    assert export_chrome(path, [result.tracer]) == len(result.tracer)
    loaded = _ordered(load_events(path))
    recorded = _ordered(event_records([result.tracer]))
    assert [_identity(r) for r in loaded] == [_identity(r) for r in recorded]
    # The export rounds microseconds to 3 decimals: 1 ns.
    for got, want in zip(loaded, recorded):
        assert got["ts"] == pytest.approx(want["ts"], abs=1e-9)
        assert got["dur"] == pytest.approx(want["dur"], abs=1e-9)
    validate_trace(result.tracer, small_cluster_config).raise_if_invalid()
