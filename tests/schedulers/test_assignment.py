"""Locality-aware block assignment tests."""

import pytest

from repro.cluster.cluster import Cluster
from repro.common.config import ClusterConfig, DfsConfig
from repro.dfs.namenode import NameNode
from repro.dfs.placement import RoundRobinPlacement
from repro.common.errors import SchedulingError
from repro.schedulers.assignment import (BlockAssigner,
                                         group_blocks_by_location,
                                         pick_reduce_node)


@pytest.fixture
def cluster() -> Cluster:
    return Cluster.from_config(ClusterConfig(num_nodes=4, rack_sizes=(2, 2)))


@pytest.fixture
def dfs_file(cluster):
    namenode = NameNode(DfsConfig(block_size_mb=64.0),
                        RoundRobinPlacement(cluster.node_ids))
    return namenode.create_file("f", 64.0 * 8)  # blocks i live on node i%4


def test_prefers_node_local(cluster, dfs_file):
    assigner = BlockAssigner(dfs_file, range(8))
    node, block, local = assigner.next_assignment(cluster)
    assert local
    assert dfs_file.block(block).locations == (node.node_id,)


def test_all_assignments_local_when_possible(cluster, dfs_file):
    assigner = BlockAssigner(dfs_file, range(8))
    locals_seen = []
    for _ in range(4):  # one wave: 4 slots
        node, block, local = assigner.next_assignment(cluster)
        node.acquire_map_slot(f"t{block}")
        locals_seen.append(local)
    assert all(locals_seen)
    assert assigner.next_assignment(cluster) is None  # no free slots


def test_falls_back_to_remote(cluster, dfs_file):
    # Only blocks living on node_000 remain, but node_000 is busy.
    assigner = BlockAssigner(dfs_file, [0, 4])
    cluster.node("node_000").acquire_map_slot("busy")
    node, block, local = assigner.next_assignment(cluster)
    assert node.node_id != "node_000"
    assert not local


def test_rack_local_preferred_over_off_rack(cluster, dfs_file):
    # Block 0 lives on node_000 (rack_0); occupy node_000 and node_001
    # (rack_0's other node) is the rack-local candidate.
    assigner = BlockAssigner(dfs_file, [0])
    cluster.node("node_000").acquire_map_slot("busy")
    node, block, local = assigner.next_assignment(cluster)
    assert not local
    assert node.rack == "rack_0"


def test_exhausts_then_none(cluster, dfs_file):
    assigner = BlockAssigner(dfs_file, [3])
    assert assigner.next_assignment(cluster) is not None
    assert assigner.next_assignment(cluster) is None
    assert len(assigner) == 0


def test_respects_exclusions(cluster, dfs_file):
    cluster.node("node_000").excluded = True
    assigner = BlockAssigner(dfs_file, [0])
    node, block, local = assigner.next_assignment(cluster,
                                                  include_excluded=False)
    assert node.node_id != "node_000"
    assert not local


def test_add_block_later(cluster, dfs_file):
    assigner = BlockAssigner(dfs_file, [])
    assert assigner.next_assignment(cluster) is None
    assigner.add(2)
    node, block, local = assigner.next_assignment(cluster)
    assert block == 2 and local


def test_pick_reduce_node(cluster):
    node = pick_reduce_node(cluster)
    assert node.node_id == "node_000"
    for nid in cluster.node_ids:
        cluster.node(nid).acquire_reduce_slot(f"r-{nid}")
    assert pick_reduce_node(cluster) is None


# --------------------------------------------- wave placement annotation

def test_group_blocks_by_location_prefers_first_holder():
    locations = {0: ("shard_00", "shard_01"), 1: ("shard_01", "shard_02"),
                 4: ("shard_00", "shard_01"), 2: ("shard_02", "shard_03")}
    plan = group_blocks_by_location(locations.__getitem__, [0, 1, 4, 2])
    assert plan == {"shard_00": [0, 4], "shard_01": [1], "shard_02": [2]}


def test_group_blocks_by_location_empty_wave():
    assert group_blocks_by_location(lambda i: ("local",), []) == {}


def test_group_blocks_by_location_rejects_holderless_block():
    with pytest.raises(SchedulingError, match="no replica holders"):
        group_blocks_by_location(lambda i: (), [7])
