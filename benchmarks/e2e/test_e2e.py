"""Tests of the e2e benchmark itself (``pytest benchmarks/e2e``; not part
of the tier-1 ``testpaths``)."""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_percentile_is_the_repos_linear_interpolation():
    assert measure.percentile([], 50) == 0.0
    assert measure.percentile([7.0], 99) == 7.0
    assert measure.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert measure.percentile(range(101), 95) == 95.0
    assert measure.percentile([1.0, 2.0], 0) == 1.0


def test_speed_probe_scales_to_the_reference_host_and_stops():
    probe = measure.SpeedProbe(interval_s=0.001)
    while len(probe.samples) < 5:
        measure.probe_kernel()
    factor = probe.stop()
    cut = len(probe.samples) // 5
    kept = sorted(probe.samples)[cut:len(probe.samples) - cut]
    assert factor == pytest.approx(
        measure.REFERENCE_KERNEL_S * len(kept) / sum(kept))
    assert not probe._thread.is_alive()
    # Distinct schedules for every epoch of every seed.
    seeds = {run.epoch_seed(seed, epoch)
             for seed in range(4) for epoch in range(run.EPOCHS)}
    assert len(seeds) == 4 * run.EPOCHS


@pytest.mark.parametrize("name", ["wc_sparse", "core_churn"])
def test_same_seed_same_schedule(name):
    workload = spec.BY_NAME[name]
    first = spec.open_schedule(workload, 5, 10.0)
    assert first == spec.open_schedule(workload, 5, 10.0)
    assert first != spec.open_schedule(workload, 6, 10.0)
    # Exactly rate x seconds arrivals, in order, inside the horizon.
    assert len(first) == round(workload.rate_per_s * 10.0)
    times = [event.time for event in first]
    assert times == sorted(times) and 0.0 <= times[0] and times[-1] < 10.0
    assert {event.tenant for event in first} == {
        f"tenant_{index}" for index in range(workload.tenants)}


def test_seed_changes_pattern_order_only():
    assert spec.pattern_order(3) == spec.pattern_order(3)
    assert sorted(spec.pattern_order(3)) == sorted(spec.PATTERNS)
    assert len({spec.pattern_order(seed) for seed in range(8)}) > 1
    dense = spec.BY_NAME["wc_dense"]
    assert spec.replay_schedule(dense, 1) == spec.replay_schedule(dense, 2)
    assert len(spec.replay_schedule(dense, 1)) == spec.REPLAY_JOBS


@pytest.mark.parametrize("name", ["wc_sparse", "core_churn", "sel_batch"])
def test_pass_b_reproduces_pass_a_on_a_two_block_corpus(name, tmp_path):
    workload = dataclasses.replace(
        spec.BY_NAME[name], corpus_bytes=2 * spec.KB, block_bytes=spec.KB,
        cache_bytes=None, prefetch_depth=0)
    store = spec.create_store(workload, tmp_path / "store")
    assert store.num_blocks == 2
    metrics, matched = layers.traced_layers(
        workload, tmp_path / "store", 1, tmp_path, tmp_path / "t.trace.json")
    assert matched
    assert metrics["replay.unattributed_share"] < 0.5
    # Every job scanned both blocks exactly once.
    assert metrics["sched.blocks_read"] == metrics["store.blocks_read"]
    events = json.loads((tmp_path / "t.trace.json").read_text())["traceEvents"]
    names = {event["name"] for event in events}
    assert {"service.step", "replay.iteration", *layers.LEAVES} <= names
    # A second replay repeats the exact counts.
    again, _ = layers.traced_layers(
        workload, tmp_path / "store", 1, tmp_path, tmp_path / "t.trace.json")
    for exact in compare.EXACT_COUNTS:
        assert again[exact] == metrics[exact]


@pytest.mark.parametrize("trace, listed", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_printed_names_equal_benchmark_json(trace, listed, capsys):
    status = run.main(["--workload", "core_churn", "--seed", "3",
                       "--seconds", "0.5", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert status == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = [(metric["name"], metric["unit"])
                for metric in CONTRACT[listed]]
    assert [(name, metric["unit"])
            for name, metric in result["metrics"].items()] == expected
    printed = [tuple(line.split()[::2]) for line in lines[5:-1]]
    assert printed == expected


def test_workload_names_equal_benchmark_json():
    assert ([(w.name, w.why) for w in spec.WORKLOADS]
            == [(w["name"], w["why"]) for w in CONTRACT["workloads"]])
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert any(metric["name"] == "setup_s" and metric["unit"] == "s"
               for metric in CONTRACT["end_to_end"])


def _record(workload, seed, trace, **values):
    return {"workload": workload, "seed": seed, "trace": trace,
            "metrics": {name: {"value": value, "unit": "x"}
                        for name, value in values.items()}}


def test_compare_flags_a_regression_and_unequal_counts(tmp_path, capsys):
    def write(name, records):
        path = tmp_path / name
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return str(path)

    counts = dict.fromkeys(compare.EXACT_COUNTS, 4)
    base = write("a.jsonl", [
        _record("wc_dense", seed, False, jobs_per_s=30.0 + seed / 10,
                latency_p50_ms=200.0) for seed in range(4)
    ] + [_record("wc_dense", 1, True, **counts)])
    same = write("b.jsonl", [
        _record("wc_dense", seed, False, jobs_per_s=30.5 + seed / 10,
                latency_p50_ms=204.0) for seed in range(4)
    ] + [_record("wc_dense", 1, True, **counts)])
    slower = write("c.jsonl", [
        _record("wc_dense", seed, False, jobs_per_s=20.0,
                latency_p50_ms=200.0) for seed in range(4)
    ] + [_record("wc_dense", 1, True, **{**counts, "sched.iterations": 5})])
    assert compare.main([base, same, "--same-code"]) == 0
    assert compare.main([base, slower]) == 1
    assert "WORSE" in capsys.readouterr().out
    # Faster is fine for an A/B run, but two runs of one commit disagree.
    assert compare.main([slower, base]) == 0
    assert compare.main([slower, base, "--same-code"]) == 1
