"""Cluster assembly: builds :class:`Node` objects and the rack topology from
a :class:`~repro.common.config.ClusterConfig`, and offers slot-level queries
used by the schedulers (free slots, available nodes after slot-check
exclusions, ...).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..common import ids
from ..common.config import ClusterConfig
from ..common.errors import ConfigError
from .node import Node
from .topology import Topology


class Cluster:
    """A set of slave nodes plus rack topology.

    The cluster object is *passive*: it tracks slot occupancy but does not
    know about time.  The scheduler driver (``repro.mapreduce.driver``)
    advances the clock and asks the cluster for capacity.
    """

    def __init__(self, nodes: Sequence[Node], topology: Topology) -> None:
        if not nodes:
            raise ConfigError("cluster needs at least one node")
        self._nodes: dict[str, Node] = {}
        for node in nodes:
            if node.node_id in self._nodes:
                raise ConfigError(f"duplicate node id {node.node_id}")
            self._nodes[node.node_id] = node
        self.topology = topology
        #: Node iteration order — deterministic, used by assignment loops.
        self._order: list[str] = [n.node_id for n in nodes]

    # ------------------------------------------------------------- factories
    @classmethod
    def from_config(cls, config: ClusterConfig) -> "Cluster":
        """Build a cluster matching ``config`` (paper defaults: 40 slaves)."""
        nodes: list[Node] = []
        node_to_rack: dict[str, str] = {}
        index = 0
        for rack_index, rack_size in enumerate(config.rack_sizes):
            rack = ids.rack_id(rack_index)
            for _ in range(rack_size):
                nid = ids.node_id(index)
                speed = 1.0 if config.node_speeds is None else float(config.node_speeds[index])
                nodes.append(Node(node_id=nid, rack=rack, speed=speed,
                                  map_slots=config.map_slots_per_node,
                                  reduce_slots=config.reduce_slots_per_node))
                node_to_rack[nid] = rack
                index += 1
        return cls(nodes, Topology(node_to_rack))

    # --------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return (self._nodes[nid] for nid in self._order)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ConfigError(f"unknown node {node_id!r}") from None

    def nodes(self) -> list[Node]:
        """All nodes in deterministic order."""
        return [self._nodes[nid] for nid in self._order]

    @property
    def node_ids(self) -> list[str]:
        return list(self._order)

    # ----------------------------------------------------------------- slots
    def total_map_slots(self, *, include_excluded: bool = True) -> int:
        return sum(n.map_slots for n in self
                   if include_excluded or not n.excluded)

    def free_map_slots(self, *, include_excluded: bool = True) -> int:
        return sum(n.free_map_slots for n in self
                   if include_excluded or not n.excluded)

    def free_reduce_slots(self) -> int:
        return sum(n.free_reduce_slots for n in self)

    def nodes_with_free_map_slot(self, *, include_excluded: bool = True) -> list[Node]:
        return [n for n in self
                if n.free_map_slots > 0 and not n.offline and n.accepting
                and (include_excluded or not n.excluded)]

    def nodes_with_free_reduce_slot(self) -> list[Node]:
        return [n for n in self
                if n.free_reduce_slots > 0 and not n.offline and n.accepting]

    def idle(self) -> bool:
        """True when no task runs anywhere."""
        return all(n.idle for n in self)
