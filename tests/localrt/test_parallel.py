"""Parallel map execution: every backend must equal the serial run."""

from concurrent.futures import Future

import pytest

from repro.common.config import ExecutionConfig
from repro.common.errors import ConfigError, ExecutionError
from repro.localrt.engine import JobRunState, run_reduce
from repro.localrt.jobs import wordcount_job
from repro.localrt.parallel import (
    BACKEND_NAMES,
    MapBackend,
    MapTaskSpec,
    ProcessMapBackend,
    SerialMapBackend,
    ThreadMapBackend,
    backend_from_config,
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
    """Concurrent read_block calls must not lose counter increments."""
    before = corpus_store.stats.blocks_read
    FifoLocalRunner(
        corpus_store,
        ExecutionConfig(map_backend="threads", map_workers=8)).run(make_jobs())
    delta = corpus_store.stats.blocks_read - before
    assert delta == 3 * corpus_store.num_blocks


def test_execute_map_wave_validation(corpus_store):
    reader = TextLineReader()
    state = JobRunState(wordcount_job("a", ".*"))
    with pytest.raises(ExecutionError, match="duplicate"):
        execute_map_wave(corpus_store, reader,
                         [MapTaskSpec(0, (state,)), MapTaskSpec(0, (state,))],
                         backend=SerialMapBackend())
    with pytest.raises(ExecutionError, match="no jobs"):
        MapTaskSpec(0, ())


def test_empty_wave_is_noop(corpus_store):
    execute_map_wave(corpus_store, TextLineReader(), [],
                     backend=SerialMapBackend())


def test_invalid_workers_on_runners(corpus_store):
    # The worker count reaches a runner only through its config, which
    # refuses a non-positive one; the pooled backends check it again.
    with pytest.raises(ConfigError, match="map_workers"):
        ExecutionConfig(map_backend="threads", map_workers=0)
    for backend_cls in (ThreadMapBackend, ProcessMapBackend):
        with pytest.raises(ExecutionError, match="workers"):
            backend_cls(workers=0)


# ---------------------------------------------------------------- backends
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
    for name in BACKEND_NAMES:
        backend = make_backend(name, workers=2)
        assert backend.name == name
        backend.close()
    with pytest.raises(ExecutionError, match="unknown map backend"):
        make_backend("gpu")


def test_backend_from_config():
    backend = backend_from_config(ExecutionConfig(map_backend="threads",
                                                  map_workers=3))
    assert isinstance(backend, ThreadMapBackend)
    assert backend.workers == 3
    backend.close()


def test_unpicklable_job_fails_by_name(corpus_store):
    job = wordcount_job("closure", ".*")
    # A lambda-held mapper attribute cannot cross the process boundary.
    job.mapper.poison = lambda: None
    runner = FifoLocalRunner(
        corpus_store,
        ExecutionConfig(map_backend="processes", map_workers=2))
    with pytest.raises(ExecutionError, match="'closure'.*processes"):
        runner.run([job])


class _RecordingPool:
    """Stands in for the process pool: counts submits, runs inline."""

    def __init__(self):
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True):
        pass


def test_picklable_memo_holds_only_the_current_wave(corpus_store):
    """The validated-ids memo is bounded by the wave, not the service's
    lifetime: riders span consecutive waves, so it still hits."""
    backend = ProcessMapBackend(workers=1)
    backend._pool = pool = _RecordingPool()
    reader = TextLineReader()
    for n in range(50):
        state = JobRunState(wordcount_job(f"job{n}", ".*"))
        backend.run_wave(corpus_store, reader, [MapTaskSpec(0, (state,))])
        assert backend._validated == {f"job{n}"}
    riders = tuple(JobRunState(wordcount_job(f"r{i}", ".*")) for i in (0, 1))
    backend.run_wave(corpus_store, reader,
                     [MapTaskSpec(0, riders), MapTaskSpec(1, riders[:1])])
    assert backend._validated == {"r0", "r1"}

    # An unpicklable mapper still fails by job name, before any task of
    # its wave (the picklable rider's included) reaches the pool.
    poisoned = wordcount_job("closure", ".*")
    poisoned.mapper.poison = lambda: None
    submitted = pool.submitted
    with pytest.raises(ExecutionError, match="'closure'.*processes"):
        backend.run_wave(corpus_store, reader,
                         [MapTaskSpec(0, riders[:1]),
                          MapTaskSpec(1, (JobRunState(poisoned),))])
    assert pool.submitted == submitted
    assert backend._validated == {"r0", "r1"}
    backend.close()


def test_unroutable_block_fails_in_parent_before_any_submit(tmp_path):
    store = ShardedBlockStore.create(
        tmp_path / "s", [f"line {i}" for i in range(40)], 40,
        num_shards=4, replication=2)
    store.fail_shard(0)
    store.fail_shard(1)          # block 0 lives on shards 0 and 1 only
    states = (JobRunState(wordcount_job("wc", ".*")),)
    backend = ProcessMapBackend(workers=1)
    backend._pool = pool = _RecordingPool()
    with pytest.raises(ExecutionError, match="all 2 replicas of block 0"):
        # Block 1 still routes (to shard 2); block 0 cannot.
        backend.run_wave(store, TextLineReader(),
                         [MapTaskSpec(1, states), MapTaskSpec(0, states)])
    assert pool.submitted == 0
    backend.close()


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("batched", [True, False])
def test_undecodable_block_fails_naming_the_block(tmp_path, backend, batched):
    """One error shape for a block that is not UTF-8, whichever mapper
    kind decodes it and whichever process it is decoded in."""
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


def test_backend_result_shape_is_validated(corpus_store):
    class TruncatingBackend(MapBackend):
        name = "truncating"

        def run_wave(self, store, reader, tasks, *, tracer=None):
            return []  # silently drops every task

    class MalformedBackend(MapBackend):
        name = "malformed"

        def run_wave(self, store, reader, tasks, *, tracer=None):
            # One output list per task but too few per-job buffers.
            return [(0, [], []) for _ in tasks]

    state = JobRunState(wordcount_job("a", ".*"))
    tasks = [MapTaskSpec(0, (state,))]
    with pytest.raises(ExecutionError, match="0 results for 1 tasks"):
        execute_map_wave(corpus_store, TextLineReader(), tasks,
                         backend=TruncatingBackend())
    with pytest.raises(ExecutionError, match="malformed"):
        execute_map_wave(corpus_store, TextLineReader(), tasks,
                         backend=MalformedBackend())


def test_backend_context_manager_reusable(corpus_store):
    def wave(backend):
        states = tuple(JobRunState(job) for job in make_jobs())
        tasks = [MapTaskSpec(index, states)
                 for index in range(corpus_store.num_blocks)]
        execute_map_wave(corpus_store, TextLineReader(), tasks,
                         backend=backend)
        return [run_reduce(state) for state in states]

    expected = wave(SerialMapBackend())
    with ProcessMapBackend(workers=2) as backend:
        assert wave(backend) == expected
        pool = backend._pool
        assert wave(backend) == expected      # pool reused across waves
        assert backend._pool is pool
    assert backend._pool is None
    assert wave(backend) == expected          # re-created lazily after close
    backend.close()
