"""Property-based equivalence of the batched and per-record scan paths.

The batched zero-copy path (block-level mappers over raw bytes) is an
execution-strategy change, never a semantics change: for any corpus, any
block size and any map backend, batched and per-record jobs must produce
**byte-identical** part files, identical counters and identical
*logical* ReadStats.  Physical counters may differ (the derived-view
table answers warm visits of summing riders without a disk read) —
logical accounting may not, and every visit is one or the other.
"""

import hashlib
import pathlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import MAP_BACKENDS, ExecutionConfig
from repro.localrt.jobs import wordcount_job
from repro.localrt.output import write_output
from repro.localrt.runners import SharedScanRunner
from repro.localrt.storage import BlockStore

WORDS = ["the", "thing", "running", "eating", "apple", "orange",
         "motion", "nation", "sad", "sunny"]
PATTERNS = ["^th.*", ".*ing$"]

corpora = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join),
    min_size=4, max_size=16)


def _digest(directory: pathlib.Path) -> dict[str, str]:
    """Byte-level fingerprint of every part file in ``directory``."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.glob("part-*"))}


def _jobs(batched):
    # One combiner job and one combiner-free job: exercises both the
    # pre-combined (counted) and the expanded (per-occurrence) batched
    # wordcount emission shapes.
    return [wordcount_job("w0", PATTERNS[0], batched=batched),
            wordcount_job("w1", PATTERNS[1], use_combiner=False,
                          batched=batched)]


@given(corpus=corpora, seg=st.integers(1, 4), block_size=st.integers(20, 120))
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_batched_matrix_byte_identical(tmp_path_factory, corpus, seg,
                                       block_size):
    directory = tmp_path_factory.mktemp("batched-corpus")
    store = BlockStore.create(directory, corpus, block_size_bytes=block_size)

    outcomes = {}
    for batched in (False, True):
        for backend in MAP_BACKENDS:
            before = store.stats_snapshot()
            runner = SharedScanRunner(
                store, ExecutionConfig(blocks_per_segment=seg,
                                       map_backend=backend,
                                       map_workers=2))
            report = runner.run(_jobs(batched))
            per_job = {}
            for job_id, result in report.results.items():
                out_dir = tmp_path_factory.mktemp(
                    f"out-{batched}-{backend}-{job_id}")
                write_output(result, out_dir)
                per_job[job_id] = _digest(out_dir)
            delta = store.stats_snapshot().delta(before)
            assert delta.blocks_read == (delta.physical_blocks_read
                                         + delta.view_blocks_read)
            outcomes[batched, backend] = {
                "parts": per_job,
                "counters": [list(report.results[j].counters)
                             for j in sorted(report.results)],
                # Logical ReadStats only: blocks/bytes visited.
                "logical": (delta.blocks_read, delta.bytes_read),
            }

    reference = outcomes[False, "serial"]
    for key, outcome in outcomes.items():
        assert outcome["parts"] == reference["parts"], key
        assert outcome["counters"] == reference["counters"], key
        assert outcome["logical"] == reference["logical"], key
