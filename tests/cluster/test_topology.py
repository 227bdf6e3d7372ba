"""Rack topology tests."""

import pytest

from repro.cluster.topology import Topology
from repro.common.errors import ConfigError


@pytest.fixture
def topo() -> Topology:
    return Topology({"n0": "r0", "n1": "r0", "n2": "r1"})


def test_rack_of_unknown_node(topo):
    with pytest.raises(ConfigError, match="unknown node"):
        topo.rack_of("ghost")


def test_empty_topology_rejected():
    with pytest.raises(ConfigError):
        Topology({})
