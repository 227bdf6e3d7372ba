"""Workload profile calibration tests (against the paper's published numbers)."""

import pytest

from repro.common.errors import ConfigError
from repro.mapreduce.profile import (
    heavy_wordcount,
    normal_wordcount,
    selection,
)


def map_task_s(profile, block_mb=64.0):
    """Nominal single-job map-task duration on a ``block_mb`` block."""
    return (profile.task_startup_s + block_mb / profile.scan_rate_mb_s
            + block_mb * profile.map_cpu_s_per_mb)


def test_normal_single_map_task_duration():
    # Table I geometry: 64 waves x 4.2s ~ 269s map phase on 40 slots.
    profile = normal_wordcount()
    assert map_task_s(profile) == pytest.approx(4.2)


def test_normal_profile_matches_fig3_map_ratio():
    """A 10-job combined map task must cost 1.288x a single-job task."""
    profile = normal_wordcount()
    single = map_task_s(profile)
    combined = (profile.task_startup_s + 64.0 / profile.scan_rate_mb_s
                + 64.0 * profile.map_cpu_s_per_mb
                * (1 + profile.map_share_beta * 9))
    assert combined / single == pytest.approx(1.288, abs=1e-3)


def test_normal_profile_matches_fig3_reduce_ratio():
    profile = normal_wordcount()
    assert 1 + profile.reduce_share_gamma * 9 == pytest.approx(1.235, abs=1e-3)


def test_normal_table1_output_volumes():
    profile = normal_wordcount()
    input_mb = 160.0 * 1024
    assert profile.map_output_records_per_mb * input_mb == pytest.approx(250e6)
    assert profile.map_output_mb_per_input_mb * input_mb == pytest.approx(2.4 * 1024)
    assert 60_000 <= profile.reduce_output_records <= 80_000
    assert profile.reduce_output_mb == pytest.approx(1.5)


def test_heavy_profile_scales_outputs():
    normal, heavy = normal_wordcount(), heavy_wordcount()
    assert heavy.map_output_mb_per_input_mb == pytest.approx(
        normal.map_output_mb_per_input_mb * 10)
    assert heavy.reduce_output_mb == pytest.approx(normal.reduce_output_mb * 200)


def test_heavy_profile_is_about_1_5x_slower():
    """Section V.E: heavy jobs take ~1.5x the normal processing time."""
    normal, heavy = normal_wordcount(), heavy_wordcount()
    normal_job = 64 * map_task_s(normal) + normal.reduce_total_s
    heavy_job = 64 * map_task_s(heavy) + heavy.reduce_total_s
    assert heavy_job / normal_job == pytest.approx(1.5, rel=0.1)


def test_heavy_shares_worse_than_normal():
    assert heavy_wordcount().map_share_beta > normal_wordcount().map_share_beta
    assert (heavy_wordcount().reduce_share_gamma
            > normal_wordcount().reduce_share_gamma)


def test_selection_profile_selectivity_bookkeeping():
    profile = selection()
    assert profile.map_output_mb_per_input_mb == pytest.approx(0.10)


def test_selection_shares_worse_than_wordcount():
    """No combiner dedup: combined selection output grows ~linearly."""
    assert selection().map_share_beta > normal_wordcount().map_share_beta


def test_with_returns_modified_copy():
    base = normal_wordcount()
    other = base.with_(reduce_total_s=99.0)
    assert other.reduce_total_s == 99.0
    assert base.reduce_total_s == 16.0
    assert other.scan_rate_mb_s == base.scan_rate_mb_s


@pytest.mark.parametrize("field,value", [
    ("scan_rate_mb_s", 0.0),
    ("map_cpu_s_per_mb", -1.0),
    ("task_startup_s", -0.1),
    ("map_share_beta", -0.5),
    ("reduce_total_s", -1.0),
    ("reduce_share_gamma", -0.1),
    ("num_reduce_tasks", 0),
])
def test_validation(field, value):
    with pytest.raises(ConfigError):
        normal_wordcount().with_(**{field: value})
