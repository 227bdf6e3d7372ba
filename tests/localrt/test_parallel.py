"""The map wave: every ``map_backend`` name runs the one in-process wave
and equals the serial run."""

import dataclasses
import multiprocessing
import threading

import pytest

from repro.common.config import MAP_BACKENDS, ExecutionConfig
from repro.common.errors import ConfigError, ExecutionError
from repro.localrt.api import BlockData
from repro.localrt.engine import (
    JobRunState,
    absorb_map_result,
    collect_map_outputs,
    count_pending_values,
    run_reduce,
)
from repro.localrt.jobs import wordcount_job
from repro.localrt.parallel import (
    MapTaskSpec,
    SerialMapBackend,
    execute_map_wave,
    make_backend,
)
from repro.localrt.records import TextLineReader
from repro.localrt.runners import FifoLocalRunner, SharedScanRunner
from repro.localrt.sharded import ShardedBlockStore
from repro.localrt.storage import BlockStore

PATTERNS = ["^b.*", ".*ing$", "^[aeiou].*"]


def make_jobs():
    return [wordcount_job(f"wc{i}", p) for i, p in enumerate(PATTERNS)]


def test_parallel_fifo_equals_serial(corpus_store):
    serial = FifoLocalRunner(corpus_store, ExecutionConfig()).run(make_jobs())
    parallel = FifoLocalRunner(
        corpus_store,
        ExecutionConfig(map_backend="threads", map_workers=4)).run(make_jobs())
    for job_id in ("wc0", "wc1", "wc2"):
        assert (serial.results[job_id].output
                == parallel.results[job_id].output)
    assert parallel.blocks_read == serial.blocks_read


def test_parallel_shared_scan_equals_serial(corpus_store):
    arrivals = {"wc1": 1, "wc2": 2}
    serial = SharedScanRunner(
        corpus_store,
        ExecutionConfig(blocks_per_segment=3)).run(make_jobs(), arrivals)
    parallel = SharedScanRunner(
        corpus_store,
        ExecutionConfig(blocks_per_segment=3, map_backend="threads",
                        map_workers=4)).run(make_jobs(), arrivals)
    for job_id in ("wc0", "wc1", "wc2"):
        assert (serial.results[job_id].output
                == parallel.results[job_id].output)
    assert parallel.bytes_read == serial.bytes_read
    assert parallel.iterations == serial.iterations


def test_read_counters_thread_safe(corpus_store):
    """Two runners sharing the store, one thread each, must not lose
    read-counter increments."""
    before = corpus_store.stats_snapshot().blocks_read
    threads = [threading.Thread(
        target=lambda: FifoLocalRunner(corpus_store).run(make_jobs()))
        for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    delta = corpus_store.stats_snapshot().blocks_read - before
    assert delta == 2 * 3 * corpus_store.num_blocks


def test_execute_map_wave_validation(corpus_store):
    reader = TextLineReader()
    state = JobRunState(wordcount_job("a", ".*"))
    with pytest.raises(ExecutionError, match="duplicate"):
        execute_map_wave(corpus_store, reader, [0, 0], (state,))
    with pytest.raises(ExecutionError, match="no jobs"):
        execute_map_wave(corpus_store, reader, [0], ())
    with pytest.raises(ExecutionError, match="no jobs"):
        MapTaskSpec(0, ())


def test_empty_wave_is_noop(corpus_store):
    execute_map_wave(corpus_store, TextLineReader(), [], ())


def test_invalid_workers_on_runners(corpus_store):
    # The worker count reaches a runner only through its config, which
    # refuses a non-positive one although no runner uses it.
    with pytest.raises(ConfigError, match="map_workers"):
        ExecutionConfig(map_backend="threads", map_workers=0)


# ------------------------------------------------------- the pool names
def test_process_backend_fifo_equals_serial(corpus_store):
    serial = FifoLocalRunner(corpus_store, ExecutionConfig()).run(make_jobs())
    procs = FifoLocalRunner(
        corpus_store,
        ExecutionConfig(map_backend="processes",
                        map_workers=2)).run(make_jobs())
    for job_id in ("wc0", "wc1", "wc2"):
        assert serial.results[job_id].output == procs.results[job_id].output
        assert (list(serial.results[job_id].counters)
                == list(procs.results[job_id].counters))
    assert procs.blocks_read == serial.blocks_read
    assert procs.bytes_read == serial.bytes_read


def test_process_backend_shared_scan_equals_serial(corpus_store):
    arrivals = {"wc1": 1, "wc2": 2}
    serial = SharedScanRunner(
        corpus_store,
        ExecutionConfig(blocks_per_segment=3)).run(make_jobs(), arrivals)
    procs = SharedScanRunner(
        corpus_store,
        ExecutionConfig(blocks_per_segment=3, map_backend="processes",
                        map_workers=2)).run(make_jobs(), arrivals)
    for job_id in ("wc0", "wc1", "wc2"):
        assert serial.results[job_id].output == procs.results[job_id].output
    assert procs.bytes_read == serial.bytes_read
    assert procs.iterations == serial.iterations


def test_make_backend_names():
    for name in MAP_BACKENDS:
        backend = make_backend(name, workers=2)
        assert isinstance(backend, SerialMapBackend)
        backend.close()
    with pytest.raises(ExecutionError, match="unknown map backend"):
        make_backend("gpu")


def test_pool_names_start_no_pool_and_equal_serial(tmp_path, monkeypatch):
    """``processes`` with two workers, through a runner and through
    ``make_backend``: outputs, counters and every ReadStats field equal
    the serial run's, no process or thread is started, and ``close()``
    is idempotent.  A mapper nothing could pickle runs as well."""
    lines = [f"the thing {i} is running to the {i % 7} motion" for i in
             range(400)]
    started = []
    original_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self)
                        or original_start(self))

    def run(name):
        store = BlockStore.create(tmp_path / name, lines, 600)
        jobs = make_jobs() + [wordcount_job("closure", ".*")]
        jobs[-1].mapper.poison = lambda: None
        report = FifoLocalRunner(store, ExecutionConfig(
            map_backend=name, map_workers=2)).run(jobs)
        states = tuple(JobRunState(job) for job in make_jobs())
        tasks = [MapTaskSpec(index, states)
                 for index in range(store.num_blocks)]
        backend = make_backend(name, workers=2)

        def wave():
            return [(count, outputs, [list(c or ()) for c in counters])
                    for count, outputs, counters
                    in backend.run_wave(store, TextLineReader(), tasks)]

        collected = wave()
        backend.close()
        backend.close()
        assert wave() == collected
        return ({job_id: (repr(result.output), list(result.counters))
                 for job_id, result in report.results.items()},
                dataclasses.asdict(report.io), collected,
                dataclasses.asdict(store.stats_snapshot()))

    assert run("processes") == run("serial")
    assert started == []
    assert multiprocessing.active_children() == []


def test_unroutable_block_fails_the_wave_before_any_absorb(tmp_path):
    store = ShardedBlockStore.create(
        tmp_path / "s", [f"line {i}" for i in range(40)], 40,
        num_shards=4, replication=2)
    store.fail_shard(0)
    store.fail_shard(1)          # block 0 lives on shards 0 and 1 only
    state = JobRunState(wordcount_job("wc", ".*"))
    with pytest.raises(ExecutionError, match="all 2 replicas of block 0"):
        # Block 1 still routes (to shard 2) and is mapped; block 0 cannot.
        execute_map_wave(store, TextLineReader(), [1, 0], (state,))
    assert store.stats_snapshot().blocks_read == 1
    assert (state.map_input_records, state.map_output_records) == (0, 0)
    assert not state.shuffle()


@pytest.mark.parametrize("backend", MAP_BACKENDS)
@pytest.mark.parametrize("batched", [True, False])
def test_undecodable_block_fails_naming_the_block(tmp_path, backend, batched):
    """One error shape for a block that is not UTF-8, whichever mapper
    kind decodes it."""
    store = BlockStore.create(
        tmp_path / "s", [f"line {i} of some text" for i in range(40)],
        block_size_bytes=200)
    bad = 2
    path = store.directory / BlockStore.BLOCK_PATTERN.format(bad)
    payload = bytearray(path.read_bytes())
    payload[5] = 0xFF                   # same size, no longer UTF-8
    path.write_bytes(bytes(payload))
    runner = FifoLocalRunner(
        store, ExecutionConfig(map_backend=backend, map_workers=2))
    with pytest.raises(ExecutionError,
                       match=rf"^block {bad} is not valid UTF-8 \(.*0xff"):
        runner.run([wordcount_job("wc", "^l.*", batched=batched)])


def test_wave_sums_equal_the_per_rider_path_over_one_plan(tmp_path):
    """One plan through the record-list path (``collect_map_outputs``
    and ``absorb_map_result`` per block, as the benchmark's layered
    replay runs it, so every rider's records land in ``groups``) and
    through ``execute_map_wave``, which sums the summing riders' blocks
    per wave: every ``JobResult`` field is equal.  Riders join and leave
    between the plan's waves, which mix the summing riders with a
    no-combiner and a per-record wordcount."""
    lines = [f"the thing {i} is running to the {i % 7} motion {i % 3}ing"
             for i in range(90)]
    store = BlockStore.create(tmp_path / "s", lines, 300)
    assert store.num_blocks >= 9
    reader = TextLineReader()

    def jobs():
        return [wordcount_job("sum0", "^th.*"),
                wordcount_job("sum1", ".*ing$", num_partitions=3),
                wordcount_job("sum2", "^[0-9]+$"),
                wordcount_job("plain", ".*ing$", use_combiner=False),
                wordcount_job("records", "^th.*", batched=False)]

    # (blocks, riders as job indexes): sum1 and plain leave after the
    # first wave, sum2 joins at the second, records skips the second.
    plan = [((0, 1, 2), (0, 1, 3, 4)), ((3, 4, 5), (0, 2, 3)),
            ((6, 7, 8), (0, 2, 4))]

    def results(per_rider):
        states = [JobRunState(job) for job in jobs()]
        for blocks, riders in plan:
            wave = [states[i] for i in riders]
            if not per_rider:
                execute_map_wave(store, reader, blocks, wave)
                continue
            for block in blocks:
                count, outputs, counters = collect_map_outputs(
                    [state.job for state in wave], reader,
                    BlockData(store.read_block_bytes(block)),
                    store.block_offset(block))
                for state, output, task_counters in zip(wave, outputs,
                                                        counters):
                    absorb_map_result(state, count, output, task_counters)
        # (waiting for its pattern, holding records in ``groups``)
        summing = [(state.pending is not None, bool(state.groups))
                   for state in states]
        finished = {}
        for state in states:
            reduce_input = count_pending_values(state)
            output = run_reduce(state)
            finished[state.job.job_id] = (
                output, state.map_input_records, state.map_output_records,
                len(output), reduce_input, list(state.counters))
        return finished, summing

    per_rider, none_summed = results(per_rider=True)
    wave, summed = results(per_rider=False)
    assert wave == per_rider
    assert none_summed == [(False, True)] * 5
    assert summed == [(True, False)] * 3 + [(False, True)] * 2
    assert all(output for output, *_ in per_rider.values())


def test_a_rider_kernel_is_resolved_once_per_job(tmp_path, monkeypatch):
    """A wave resolves how it treats a job — batch kernel, per-record or
    summed — at the job's first wave, not once per (job, block); a
    kernel that declines the wave's reader still raises, with its
    message, at that first wave, before any block is read."""
    import repro.localrt.parallel as parallel
    from repro.localrt.jobs import selection_job

    store = BlockStore.create(
        tmp_path / "s", [f"the thing {i} is running" for i in range(60)],
        block_size_bytes=100)
    assert store.num_blocks >= 8
    calls = []
    resolve = parallel.batch_mapper_for

    def counting(job, reader):
        calls.append(job.job_id)
        return resolve(job, reader)

    monkeypatch.setattr(parallel, "batch_mapper_for", counting)
    jobs = [wordcount_job("sum", "^th.*"),
            wordcount_job("plain", ".*ing$", use_combiner=False),
            wordcount_job("records", "^t.*", batched=False)]
    report = SharedScanRunner(store, ExecutionConfig(
        blocks_per_segment=3)).run(jobs, {"records": 1})
    assert sorted(calls) == ["plain", "records", "sum"]
    assert all(report.result(job.job_id).output for job in jobs)

    before = store.stats_snapshot().blocks_read
    with pytest.raises(ExecutionError, match=(
            r"^job 'sel': SelectionBlockMapper does not support "
            r"TextLineReader; pass a reader its map_block kernel supports, "
            r"or construct the job with batched=False$")):
        SharedScanRunner(store).run([wordcount_job("wc", "^th.*"),
                                     selection_job("sel", 10.0)])
    assert calls[3:] == ["wc", "sel"]
    assert store.stats_snapshot().blocks_read == before
