"""Configuration validation tests."""

import pytest

from repro.common.config import ClusterConfig, DfsConfig, ExecutionConfig
from repro.common.errors import ConfigError
from repro.experiments.paperconfig import paper_dfs_config


def test_paper_cluster_defaults():
    config = ClusterConfig()
    assert config.num_nodes == 40
    assert config.total_map_slots == 40
    assert sum(config.rack_sizes) == 40
    assert len(config.rack_sizes) == 3


def test_paper_dfs_defaults():
    config = paper_dfs_config()
    assert config.block_size_mb == 64.0
    assert config.replication == 1


def test_rack_sizes_must_sum_to_nodes():
    with pytest.raises(ConfigError, match="rack_sizes"):
        ClusterConfig(num_nodes=10, rack_sizes=(4, 4))


def test_empty_rack_rejected():
    with pytest.raises(ConfigError):
        ClusterConfig(num_nodes=4, rack_sizes=(4, 0))


def test_node_speeds_length_checked():
    with pytest.raises(ConfigError, match="node_speeds"):
        ClusterConfig(num_nodes=4, rack_sizes=(4,), node_speeds=[1.0, 1.0])


def test_non_positive_speed_rejected():
    with pytest.raises(ConfigError):
        ClusterConfig(num_nodes=2, rack_sizes=(2,), node_speeds=[1.0, 0.0])


def test_non_positive_nodes_rejected():
    with pytest.raises(ConfigError):
        ClusterConfig(num_nodes=0, rack_sizes=())


def test_slot_counts_validated():
    with pytest.raises(ConfigError):
        ClusterConfig(num_nodes=2, rack_sizes=(2,), map_slots_per_node=0)


def test_total_slots_scale_with_slots_per_node():
    config = ClusterConfig(num_nodes=4, rack_sizes=(4,),
                           map_slots_per_node=2, reduce_slots_per_node=3)
    assert config.total_map_slots == 8


def test_dfs_block_size_positive():
    with pytest.raises(ConfigError):
        DfsConfig(block_size_mb=0)


def test_dfs_replication_at_least_one():
    with pytest.raises(ConfigError):
        DfsConfig(replication=0)


def test_execution_config_defaults():
    config = ExecutionConfig()
    assert config.map_backend == "serial"
    assert config.map_workers is None


def test_execution_config_validates_backend_name():
    ExecutionConfig(map_backend="processes", map_workers=4)
    with pytest.raises(ConfigError):
        ExecutionConfig(map_backend="gpu")


def test_execution_config_validates_workers():
    with pytest.raises(ConfigError):
        ExecutionConfig(map_workers=0)


def test_execution_config_validates_scan_knobs():
    # The runners take these from the config and nowhere else, so this
    # is the one place an invalid value can be (and is) refused.
    with pytest.raises(ConfigError, match="prefetch_depth"):
        ExecutionConfig(cache_capacity_bytes=1 << 20, prefetch_depth=-1)
    with pytest.raises(ConfigError, match="cache_capacity_bytes"):
        ExecutionConfig(prefetch_depth=2)
    with pytest.raises(ConfigError, match="blocks_per_segment"):
        ExecutionConfig(blocks_per_segment=0)
