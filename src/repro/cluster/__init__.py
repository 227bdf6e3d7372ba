"""Cluster model: nodes, racks, topology, slots."""

from .cluster import Cluster
from .node import Node
from .topology import Topology

__all__ = [
    "Cluster", "Node", "Topology",
]
