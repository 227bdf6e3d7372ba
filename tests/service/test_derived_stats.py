"""The store handle's derived-view table, as the running service reports
it: ``snapshot()["derived"]`` and ``repro_derived_*`` on ``/metrics``."""

from repro.common.clock import FakeClock
from repro.common.config import ExecutionConfig
from repro.localrt.jobs import wordcount_job
from repro.obs.live.exposition import parse_exposition
from repro.service.config import ServiceConfig
from repro.service.core import SchedulerService
from repro.service.http import render_metrics


def test_fixed_replay_misses_once_per_block_and_hits_every_lap_after(store):
    """Three jobs, each submitted when the one before is done, are three
    laps of the circular scan: every block is derived on the first and
    served from the table on the other two."""
    clock = FakeClock()
    service = SchedulerService(
        store, ServiceConfig(execution=ExecutionConfig(blocks_per_segment=4)),
        clock=clock)
    laps, blocks = 3, store.num_blocks
    outputs = []
    for lap in range(laps):
        job_id = service.submit(wordcount_job(f"lap{lap}", r"alpha"),
                                tenant="tenant_a")
        while service.step():
            clock.advance(1.0)
        outputs.append(service.status(job_id).result.output)
    assert outputs[0] == outputs[1] == outputs[2] != []

    snapshot = service.snapshot()
    assert snapshot["blocks_read"] == laps * blocks  # every read issued
    assert snapshot["derived"] == {
        "hits": (laps - 1) * blocks, "misses": blocks, "admitted": blocks,
        "refused_at_cap": 0, "invalidated": 0, "resident_blocks": blocks,
        "charged_bytes": store.total_bytes}
    assert snapshot["derived"] == store.derived.stats()

    exposed = {family.name: family
               for family in parse_exposition(render_metrics(service))}
    for key, value in snapshot["derived"].items():
        level = key in ("resident_blocks", "charged_bytes")
        family = exposed[f"repro_derived_{key}" + ("" if level else "_total")]
        assert family.kind == ("gauge" if level else "counter")
        assert [sample.value for sample in family.samples] == [value]
    service.shutdown()
