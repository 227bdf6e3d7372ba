"""Rack-aware network topology: which rack each node sits in.

The map-task assignment policy uses it to prefer data-local tasks,
mirroring the JobTracker's locality levels (node-local, rack-local,
off-rack).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import ConfigError


@dataclass(frozen=True)
class Topology:
    """Immutable mapping of nodes to racks."""

    node_to_rack: dict[str, str]

    def __post_init__(self) -> None:
        if not self.node_to_rack:
            raise ConfigError("topology must contain at least one node")

    def rack_of(self, node_id: str) -> str:
        try:
            return self.node_to_rack[node_id]
        except KeyError:
            raise ConfigError(f"unknown node {node_id!r}") from None

