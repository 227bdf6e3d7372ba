"""Cost model tests."""

import pytest

from repro.common.errors import ConfigError
from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.profile import normal_wordcount


@pytest.fixture
def cost() -> CostModel:
    return CostModel(job_submit_overhead_s=12.0, subjob_overhead_s=0.75)


@pytest.fixture
def profile():
    return normal_wordcount()


def test_map_duration_single(cost, profile):
    assert cost.map_task_duration(profile, 64.0, 1) == pytest.approx(4.2)


def test_map_duration_grows_with_batch(cost, profile):
    durations = [cost.map_task_duration(profile, 64.0, n) for n in (1, 2, 5, 10)]
    assert durations == sorted(durations)
    assert durations[-1] / durations[0] == pytest.approx(1.288, abs=1e-3)


def test_map_duration_scales_with_block(cost, profile):
    small = cost.map_task_duration(profile, 32.0, 1)
    large = cost.map_task_duration(profile, 128.0, 1)
    # Fixed startup means doubling the block less than doubles the task.
    assert large < 4 * small
    assert large > 2 * small


def test_map_duration_node_speed(cost, profile):
    fast = cost.map_task_duration(profile, 64.0, 1, node_speed=2.0)
    slow = cost.map_task_duration(profile, 64.0, 1, node_speed=0.5)
    assert fast == pytest.approx(2.1)
    assert slow == pytest.approx(8.4)


def test_remote_read_penalty(cost, profile):
    local = cost.map_task_duration(profile, 64.0, 1, local=True)
    remote = cost.map_task_duration(profile, 64.0, 1, local=False)
    assert remote - local == pytest.approx(64.0 / cost.link_bandwidth_mb_s)


def test_map_duration_validation(cost, profile):
    with pytest.raises(ConfigError):
        cost.map_task_duration(profile, 64.0, 0)
    with pytest.raises(ConfigError):
        cost.map_task_duration(profile, 0.0, 1)
    with pytest.raises(ConfigError):
        cost.map_task_duration(profile, 64.0, 1, node_speed=0.0)


def test_reduce_duration_full_file(cost, profile):
    assert cost.reduce_task_duration(profile, 1) == pytest.approx(16.0)


def test_reduce_duration_fraction(cost, profile):
    segment = cost.reduce_task_duration(profile, 1, file_fraction=1 / 64)
    assert segment == pytest.approx(16.0 / 64)


def test_reduce_duration_batch_overhead(cost, profile):
    combined = cost.reduce_task_duration(profile, 10)
    assert combined / 16.0 == pytest.approx(1.235, abs=1e-3)


def test_reduce_duration_validation(cost, profile):
    with pytest.raises(ConfigError):
        cost.reduce_task_duration(profile, 0)
    with pytest.raises(ConfigError):
        cost.reduce_task_duration(profile, 1, file_fraction=0.0)
    with pytest.raises(ConfigError):
        cost.reduce_task_duration(profile, 1, file_fraction=1.5)


def single_job_makespan(cost, profile):
    """Submit + map phase + one reduce, 2560 blocks on 40 slots."""
    return (cost.job_submit_overhead_s
            + cost.single_job_map_phase_s(profile, 2560, 64.0, 40)
            + cost.reduce_task_duration(profile, 1))


def test_single_job_makespan_matches_table1(cost, profile):
    """2560 blocks on 40 slots: ~4m45s per job + 12s submission."""
    makespan = single_job_makespan(cost, profile)
    assert makespan == pytest.approx(12.0 + 64 * 4.2 + 16.0)
    # The paper reports ~240s of pure processing; we land within 25%.
    assert 240.0 * 0.8 <= makespan - 12.0 <= 240.0 * 1.4


def test_combined_makespan_ratio(cost, profile):
    single = single_job_makespan(cost, profile)
    combined = cost.combined_job_makespan_s(profile, 10, 2560, 64.0, 40)
    # Figure 3's headline: ~+25.5% TET for 10 combined jobs.
    assert combined / single == pytest.approx(1.255, abs=0.03)


def test_partial_wave_rounds_up(cost, profile):
    phase = cost.single_job_map_phase_s(profile, 41, 64.0, 40)
    assert phase == pytest.approx(2 * 4.2)


def test_overhead_validation():
    with pytest.raises(ConfigError):
        CostModel(job_submit_overhead_s=-1.0)
    with pytest.raises(ConfigError):
        CostModel(link_bandwidth_mb_s=0.0)
    with pytest.raises(ConfigError):
        CostModel(duration_jitter=-0.1)
