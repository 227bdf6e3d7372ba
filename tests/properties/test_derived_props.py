"""Property: the derived-view table changes nothing observable.

For any corpus, block size, rider set and number of laps — with the
token dictionary's cap and the table's cap forced so small that
roll-over, non-admission and re-admission all happen mid-scan — a plan
run on blocks bound to their store handle's table produces byte-identical
part files, identical job counters and identical ``ReadStats`` (logical
*and* physical) to the same plan on unbound blocks under the shipped
caps, and to the per-record mappers, on every map backend.
"""

import dataclasses
import hashlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.localrt.tokens as tokens
from repro.common.config import ExecutionConfig
from repro.localrt.api import BlockData
from repro.localrt.jobs import wordcount_job
from repro.localrt.output import write_output
from repro.localrt.parallel import BACKEND_NAMES
from repro.localrt.runners import SharedScanRunner
from repro.localrt.storage import BlockStore
from repro.localrt.tokens import TokenEncoder

WORDS = [stem + suffix for stem in ("th", "run", "eat", "app", "mot", "sad")
         for suffix in ("e", "ing", "ed", "le", "ion", "s", "")]
PATTERNS = ["^th.*", ".*ing$", ".*e.*", "^[aeiou].*"]

corpora = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=10).map(" ".join),
    min_size=6, max_size=24)
riders = st.lists(
    st.tuples(st.sampled_from(PATTERNS), st.booleans(), st.integers(0, 6)),
    min_size=1, max_size=4)


def _plan(store, backend, seg, laps, rider_set, batched, out_root):
    """``laps`` back-to-back runs of one rider set on one store handle;
    what each run let a caller observe."""
    jobs = [wordcount_job(f"j{i}", pattern, use_combiner=combiner,
                          batched=batched)
            for i, (pattern, combiner, _) in enumerate(rider_set)]
    arrivals = {f"j{i}": arrival
                for i, (_, _, arrival) in enumerate(rider_set)}
    config = ExecutionConfig(blocks_per_segment=seg, map_backend=backend,
                             map_workers=2)
    outputs, reads = [], []
    with SharedScanRunner(store, config) as runner:
        for lap in range(laps):
            report = runner.run(jobs, arrivals)
            parts = {}
            for job_id, result in sorted(report.results.items()):
                for path in write_output(result,
                                         out_root / f"lap{lap}" / job_id):
                    parts[job_id, path.name] = hashlib.sha256(
                        path.read_bytes()).hexdigest()
            outputs.append((parts, {job_id: list(result.counters)
                                    for job_id, result
                                    in report.results.items()}))
            reads.append(dataclasses.asdict(store.stats_snapshot()))
    return outputs, reads


@given(corpus=corpora, block_size=st.integers(30, 150),
       seg=st.integers(1, 3), laps=st.integers(1, 3), rider_set=riders,
       dictionary_cap=st.integers(4, 48), table_blocks=st.integers(1, 4))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_table_changes_nothing_observable(tmp_path_factory, corpus,
                                          block_size, seg, laps, rider_set,
                                          dictionary_cap, table_blocks):
    directory = tmp_path_factory.mktemp("derived-corpus")
    BlockStore.create(directory, corpus, block_size_bytes=block_size)
    outcomes = {}
    for backend in BACKEND_NAMES:
        for variant in ("unbound", "bound", "per-record"):
            out_root = tmp_path_factory.mktemp(f"out-{backend}-{variant}")
            with pytest.MonkeyPatch.context() as patch:
                if variant == "unbound":
                    patch.setattr(BlockData, "bind",
                                  lambda self, views, block: self)
                elif variant == "bound":
                    patch.setattr(tokens, "TOKEN_DICTIONARY_CAP",
                                  dictionary_cap)
                    patch.setattr(tokens, "DERIVED_VIEWS_CAP_BYTES",
                                  table_blocks * block_size)
                    patch.setattr(tokens, "ENCODER", TokenEncoder())
                store = BlockStore(directory)  # a handle, a table, of its own
                outcomes[backend, variant] = _plan(
                    store, backend, seg, laps, rider_set,
                    variant != "per-record", out_root)
                if variant == "bound" and backend != "processes":
                    stats = store.derived.stats()
                    assert stats["hits"] + stats["misses"] > 0
                    assert stats["charged_bytes"] <= table_blocks * block_size

    reference_outputs, _ = outcomes["serial", "unbound"]
    for (backend, variant), (outputs, reads) in outcomes.items():
        assert outputs == reference_outputs, (backend, variant)
        # A pool worker's reads are never mmap-observed by the parent,
        # so ReadStats compare within a backend, field for field.
        assert reads == outcomes[backend, "unbound"][1], (backend, variant)
