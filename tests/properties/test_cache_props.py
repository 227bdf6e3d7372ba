"""Property-based equivalence of the cache + read-ahead I/O layer.

The block cache and the prefetcher are *physical*-path optimisations,
never semantics changes: for any corpus, segment size, admission
schedule, runner and map backend, a cached + prefetched run must produce
**byte-identical** part files, outputs and *logical*
``blocks_read``/``bytes_read`` counters versus the plain (cache-off)
run.  Physical counters are exactly what is allowed to differ — that is
the optimisation.
"""

import hashlib
import pathlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import MAP_BACKENDS, ExecutionConfig
from repro.localrt.jobs import wordcount_job
from repro.localrt.output import write_output
from repro.localrt.runners import FifoLocalRunner, SharedScanRunner
from repro.localrt.storage import BlockStore

WORDS = ["the", "thing", "running", "eating", "apple", "orange",
         "motion", "nation", "sad", "sunny"]
PATTERNS = ["^th.*", ".*ing$", "^[aeiou].*", ".*tion$"]

corpora = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join),
    min_size=4, max_size=20)
schedules = st.lists(st.integers(0, 4), min_size=1, max_size=3)


def _digest(directory: pathlib.Path) -> dict[str, str]:
    """Byte-level fingerprint of every part file in ``directory``."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.glob("part-*"))}


def _jobs(n):
    return [wordcount_job(f"w{i}", PATTERNS[i % len(PATTERNS)])
            for i in range(n)]


def _run_variant(tmp_path_factory, directory, backend, runner_kind, seg,
                 arrival_map, n_jobs, *, cache_bytes, prefetch_depth):
    """One (runner, backend, cache-config) execution over ``directory``.

    A fresh BlockStore per variant keeps every counter independent.
    """
    store = BlockStore(directory)
    config = ExecutionConfig(
        map_backend=backend, map_workers=2,
        cache_capacity_bytes=cache_bytes or None,
        prefetch_depth=prefetch_depth if cache_bytes else 0,
        blocks_per_segment=seg)
    if runner_kind == "fifo":
        report = FifoLocalRunner(store, config).run(_jobs(n_jobs))
    else:
        report = SharedScanRunner(store, config).run(
            _jobs(n_jobs), arrival_iterations=arrival_map)
    per_job: dict[str, dict[str, str]] = {}
    outputs: dict[str, list] = {}
    for job_id, result in report.results.items():
        out_dir = tmp_path_factory.mktemp(f"out-{runner_kind}-{backend}")
        write_output(result, out_dir)
        per_job[job_id] = _digest(out_dir)
        outputs[job_id] = sorted(result.output)
    return {
        "digests": per_job,
        "outputs": outputs,
        "logical": (report.blocks_read, report.bytes_read,
                    report.iterations),
        "counters": [list(report.results[j].counters)
                     for j in sorted(report.results)],
    }


@given(corpus=corpora, seg=st.integers(1, 4), arrivals=schedules,
       block_size=st.integers(20, 120), prefetch_depth=st.integers(1, 6))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cache_and_prefetch_bit_identical(tmp_path_factory, corpus, seg,
                                          arrivals, block_size,
                                          prefetch_depth):
    directory = tmp_path_factory.mktemp("cache-corpus")
    store = BlockStore.create(directory, corpus, block_size_bytes=block_size)
    # Cache sized to ~half the corpus forces evictions in some examples
    # while still producing hits; correctness must hold either way.
    half_cache = max(1, store.total_bytes // 2)
    arrival_map = {f"w{i}": a for i, a in enumerate(arrivals)}
    n_jobs = len(arrivals)

    for runner_kind in ("fifo", "shared"):
        for backend in MAP_BACKENDS:
            baseline = _run_variant(
                tmp_path_factory, directory, backend, runner_kind, seg,
                arrival_map, n_jobs, cache_bytes=0, prefetch_depth=0)
            for cache_bytes, depth in ((store.total_bytes * 2, prefetch_depth),
                                       (half_cache, prefetch_depth)):
                accel = _run_variant(
                    tmp_path_factory, directory, backend, runner_kind, seg,
                    arrival_map, n_jobs, cache_bytes=cache_bytes,
                    prefetch_depth=depth)
                label = f"{runner_kind}/{backend}/cache={cache_bytes}"
                assert accel["digests"] == baseline["digests"], \
                    f"{label}: part files diverge"
                assert accel["outputs"] == baseline["outputs"], \
                    f"{label}: outputs diverge"
                assert accel["logical"] == baseline["logical"], \
                    f"{label}: logical I/O counters diverge"
                assert accel["counters"] == baseline["counters"], \
                    f"{label}: job counters diverge"
