"""Test-side helpers for driving the engine below the map wave."""

from __future__ import annotations

from repro.localrt.engine import JobRunState, absorb_map_result, collect_map_outputs
from repro.localrt.records import RecordReader


def run_map_on_block(states: list[JobRunState], reader: RecordReader,
                     block_data: bytes, base_offset: int = 0) -> None:
    """One map task over one block, shared by every job in ``states``:
    collect each job's output, then fold it into its run state."""
    record_count, outputs, task_counters = collect_map_outputs(
        [state.job for state in states], reader, block_data, base_offset)
    for state, buffer, counters in zip(states, outputs, task_counters):
        absorb_map_result(state, record_count, buffer, counters)
