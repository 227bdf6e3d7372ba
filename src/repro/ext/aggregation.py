"""Output collection schemes for aggregation queries (Section V.G).

The paper observes that S3's sub-jobs produce *partial results* as the scan
progresses, and that for aggregation queries "it is possible for subsequent
phases of sub-jobs to exploit and utilize the results generated from earlier
phases ... a refined partial aggregation can be performed [so] the final
aggregation of all output can be started earlier without introducing a
significant overhead".

Two collection schemes over the real local runtime:

* **collect-at-end** — intermediate records accumulate in the shuffle for
  the job's whole lifetime; the final reduce merges everything at once.
* **progressive** — after every iteration, each (algebraic) job's buffered
  shuffle state is folded through its combiner, so the state carried
  between iterations stays at ~one value per distinct key and the final
  reduce is nearly free.

Both schemes produce **identical outputs** (the aggregations are algebraic);
they differ in the size of the final merge, which
:func:`compare_collection_schemes` quantifies.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Hashable, Mapping, Sequence

from ..common.config import ExecutionConfig
from ..common.errors import ExecutionError
from ..localrt.api import Record
from ..localrt.engine import JobRunState
from ..localrt.records import RecordReader
from ..localrt.api import BlockStoreProtocol
from ..localrt.runners import RunReport, SharedScanRunner


def fold_partial_aggregates(states: Sequence[JobRunState]) -> None:
    """Collapse each job's buffered shuffle state through its combiner.

    Only jobs with a combiner are folded (a combiner is exactly the promise
    that partial aggregation is semantics-preserving); what the combiner
    returns is filed under the key it returns.
    """
    for state in states:
        combiner = state.job.combiner
        if combiner is None:
            continue
        folded: defaultdict[Hashable, list[Any]] = defaultdict(list)
        for key, values in state.shuffle().items():
            if len(values) <= 1:
                folded[key].extend(values)
                continue
            for out_key, out_value in combiner.reduce(key, values):
                folded[out_key].append(out_value)
        state.replace_shuffle(folded)


@dataclass(frozen=True)
class CollectionComparison:
    """Outcome of running both collection schemes on the same workload."""

    at_end: RunReport
    progressive: RunReport

    def final_merge_reduction(self, job_id: str) -> float:
        """Fraction of final-reduce input eliminated by progressive folding."""
        base = self.at_end.result(job_id).reduce_input_values
        prog = self.progressive.result(job_id).reduce_input_values
        if base <= 0:
            raise ExecutionError(f"{job_id}: no reduce input to compare")
        return 1.0 - prog / base

    def outputs_match(self) -> bool:
        """Both schemes must produce identical results (sanity invariant)."""
        if set(self.at_end.results) != set(self.progressive.results):
            return False
        for job_id, result in self.at_end.results.items():
            other = self.progressive.results[job_id]
            if _normalise(result.output) != _normalise(other.output):
                return False
        return True


def _normalise(output: list[Record]) -> list[tuple[str, str]]:
    return sorted((repr(k), repr(v)) for k, v in output)


def compare_collection_schemes(
        store: BlockStoreProtocol, jobs_factory, *,
        reader: RecordReader | None = None,
        blocks_per_segment: int = 4,
        arrival_iterations: Mapping[str, int] | None = None,
        ) -> CollectionComparison:
    """Run the same jobs under both collection schemes.

    ``jobs_factory`` is a zero-argument callable returning fresh
    :class:`LocalJob` objects (each run needs clean mapper/reducer state).
    """
    runner = SharedScanRunner(
        store, ExecutionConfig(blocks_per_segment=blocks_per_segment),
        reader=reader)
    at_end = runner.run(jobs_factory(), arrival_iterations)
    progressive = runner.run(
        jobs_factory(), arrival_iterations,
        on_iteration_end=lambda _i, states: fold_partial_aggregates(states))
    return CollectionComparison(at_end=at_end, progressive=progressive)
