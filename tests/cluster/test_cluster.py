"""Cluster assembly and slot-pool query tests."""

import pytest

from repro.cluster.cluster import Cluster
from repro.common.config import ClusterConfig
from repro.common.errors import ConfigError


@pytest.fixture
def cluster(small_cluster_config) -> Cluster:
    return Cluster.from_config(small_cluster_config)


def test_from_config_builds_all_nodes(cluster):
    assert len(cluster) == 8
    assert cluster.total_map_slots() == 8


def test_rack_assignment_follows_config(cluster):
    racks = {cluster.node(nid).rack for nid in cluster.node_ids}
    assert racks == {"rack_0", "rack_1"}
    assert sum(cluster.topology.rack_of(nid) == "rack_0"
               for nid in cluster.node_ids) == 4


def test_node_speeds_applied():
    config = ClusterConfig(num_nodes=2, rack_sizes=(2,),
                           node_speeds=[1.0, 0.5])
    cluster = Cluster.from_config(config)
    assert cluster.node("node_001").speed == 0.5


def test_unknown_node_rejected(cluster):
    with pytest.raises(ConfigError):
        cluster.node("node_999")


def test_free_slot_tracking(cluster):
    node = cluster.node("node_000")
    node.acquire_map_slot("a")
    assert cluster.free_map_slots() == 7
    assert len(cluster.nodes_with_free_map_slot()) == 7
    assert all(n.node_id != "node_000"
               for n in cluster.nodes_with_free_map_slot())


def test_exclusions(cluster):
    for node_id in ("node_001", "node_002"):
        cluster.node(node_id).excluded = True
    assert cluster.free_map_slots(include_excluded=False) == 6
    assert cluster.total_map_slots(include_excluded=False) == 6
    cluster.node("node_001").excluded = False
    assert cluster.total_map_slots(include_excluded=False) == 7


def test_idle_reflects_running_tasks(cluster):
    assert cluster.idle()
    cluster.node("node_003").acquire_reduce_slot("r")
    assert not cluster.idle()


def test_iteration_order_deterministic(cluster):
    assert [n.node_id for n in cluster] == sorted(cluster.node_ids)


def test_contains(cluster):
    assert "node_000" in cluster
    assert "node_999" not in cluster


def test_duplicate_node_ids_rejected():
    from repro.cluster.node import Node
    from repro.cluster.topology import Topology
    nodes = [Node("n0", "r0"), Node("n0", "r0")]
    with pytest.raises(ConfigError, match="duplicate"):
        Cluster(nodes, Topology({"n0": "r0"}))


def test_empty_cluster_rejected():
    from repro.cluster.topology import Topology
    with pytest.raises(ConfigError):
        Cluster([], Topology({"n0": "r0"}))
